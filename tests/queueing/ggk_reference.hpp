// Reference G/G/k engine for tests: one binary heap (std::push_heap /
// pop_heap) carrying arrivals, timeouts and completions, with the arrival
// and demand randomness drawn inline from one Rng as events fire.
//
// simulate_ggk replays pre-drawn streams, queues timeouts in a FIFO and
// keeps only completions in a 4-ary heap; this engine does none of that.
// Both must still process the same event sequence — ties on the time axis
// break on push order — so every GGkResult field agrees bit for bit
// (tests/queueing/ggk_fast_test.cpp).  The arithmetic (rates, lazy work
// snapshots, completion times) is spelled out the same way on purpose:
// a reordered floating-point expression would move the last bits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "queueing/ggk_simulator.hpp"

namespace stac::queueing::reference {

inline GGkResult simulate(const GGkConfig& config) {
  // Config-derived constants.
  const double lambda = config.utilization *
                        static_cast<double>(config.servers) /
                        config.mean_service;
  const double boost_mult =
      std::max(1.0, config.effective_allocation * config.allocation_ratio);
  const double residual_mult =
      1.0 + std::clamp(config.residual_weight * config.boost_prevalence, 0.0,
                       1.0) *
                (boost_mult - 1.0);
  const double dflt_rate =
      std::min(residual_mult, boost_mult) / config.mean_service;
  const double boost_rate = boost_mult / config.mean_service;
  const double timeout_abs = config.timeout_rel * config.mean_service;
  const bool boosting =
      config.timeout_rel < 6.0 && config.allocation_ratio > 1.0;
  const std::size_t arrival_limit = config.queries + config.servers * 4;
  const std::size_t target = config.queries - config.warmup;

  struct Job {
    double arrival = 0.0;
    double remaining = 1.0;  // work left as of snap_time
    double snap_time = 0.0;
    double snap_rate = 0.0;
    double start = -1.0;
    bool overdue = false;
    bool done = false;
    std::uint32_t gen = 0;
  };
  enum class Kind : std::uint8_t { kArrival, kCompletion, kTimeout };
  struct Event {
    double time;
    std::uint64_t seq;
    Kind kind;
    std::uint32_t job;
    std::uint32_t gen;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  GGkResult result;
  Rng rng(config.seed);
  std::vector<Job> jobs;
  std::vector<std::size_t> fifo;
  std::size_t fifo_head = 0;
  std::vector<std::size_t> serving;
  std::uint32_t boost_refs = 0;
  double now = 0.0;
  double queue_delay_sum = 0.0;

  std::vector<Event> heap;
  std::uint64_t seq = 0;
  auto push = [&](double t, Kind kind, std::size_t job, std::uint32_t gen) {
    heap.push_back({t, seq++, kind, static_cast<std::uint32_t>(job), gen});
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  auto rate_for = [&](const Job& job) {
    if (config.class_level_boost)
      return boost_refs > 0 ? boost_rate : dflt_rate;
    return job.overdue ? boost_rate : dflt_rate;
  };
  auto materialize = [&](Job& job) {
    if (job.snap_time < now) {
      job.remaining = std::max(
          0.0, job.remaining - job.snap_rate * (now - job.snap_time));
      job.snap_time = now;
    }
  };
  auto schedule_completion = [&](std::size_t j) {
    Job& job = jobs[j];
    materialize(job);
    job.snap_rate = rate_for(job);
    ++job.gen;
    push(now + job.remaining / job.snap_rate, Kind::kCompletion, j, job.gen);
  };
  auto reschedule_all = [&] {
    for (const std::size_t j : serving) schedule_completion(j);
  };
  auto start = [&](std::size_t j) {
    jobs[j].start = now;
    serving.push_back(j);
    schedule_completion(j);
  };

  std::size_t arrivals = 0;
  push(rng.exponential(lambda), Kind::kArrival, 0, 0);
  while (!heap.empty() && result.completed < target) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const Event ev = heap.back();
    heap.pop_back();
    now = std::max(now, ev.time);

    if (ev.kind == Kind::kArrival) {
      if (arrivals < arrival_limit)
        push(now + rng.exponential(lambda), Kind::kArrival, 0, 0);
      ++arrivals;
      Job job;
      job.arrival = now;
      double demand =
          config.service_cv > 0.0 ? rng.lognormal_mean_cv(1.0, config.service_cv)
                                  : 1.0;
      if (FaultInjector::global().armed()) {
        const auto fault = FaultInjector::global().evaluate(
            "ggk.service",
            fault_key(config.seed, static_cast<std::uint64_t>(arrivals)));
        if (fault.action == FaultAction::kLatency) {
          demand *= 1.0 + std::max(0.0, fault.latency);
          ++result.latency_injections;
        }
      }
      job.remaining = demand;
      job.snap_time = now;
      jobs.push_back(job);
      const std::size_t idx = jobs.size() - 1;
      if (boosting) push(now + timeout_abs, Kind::kTimeout, idx, 0);
      if (serving.size() < config.servers)
        start(idx);
      else
        fifo.push_back(idx);
    } else if (ev.kind == Kind::kTimeout) {
      Job& job = jobs[ev.job];
      if (job.done || job.overdue) continue;
      job.overdue = true;
      if (config.class_level_boost) {
        if (boost_refs++ == 0) {
          ++result.cos_switches;
          reschedule_all();
        }
      } else if (job.start >= 0.0) {
        schedule_completion(ev.job);
      }
    } else {
      Job& job = jobs[ev.job];
      if (job.done || job.gen != ev.gen) continue;  // stale
      materialize(job);
      if (job.remaining > 1e-9) {  // rate changed since scheduling
        schedule_completion(ev.job);
        continue;
      }
      job.done = true;
      serving.erase(std::find(serving.begin(), serving.end(), ev.job));
      bool reverted = false;
      if (job.overdue && config.class_level_boost && --boost_refs == 0) {
        ++result.cos_switches;
        reverted = true;
      }
      if (ev.job >= config.warmup) {
        const double rt = now - job.arrival;
        result.response_times.add(rt);
        queue_delay_sum += job.start - job.arrival;
        if (rt < 0.0) ++result.negative_sojourns;
        if (job.overdue) ++result.boosted_queries;
        ++result.completed;
      }
      if (reverted) reschedule_all();
      if (fifo_head < fifo.size()) start(fifo[fifo_head++]);
    }
  }

  result.mean_queue_delay =
      result.completed > 0
          ? queue_delay_sum / static_cast<double>(result.completed)
          : 0.0;
  result.residual_boost_refs = boost_refs;
  for (const Job& job : jobs)
    if (!job.done && job.overdue) ++result.residual_overdue_jobs;
  return result;
}

}  // namespace stac::queueing::reference
