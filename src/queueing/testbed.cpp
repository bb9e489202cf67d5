#include "queueing/testbed.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stac::queueing {

namespace {
/// Occupancy step tolerance: refresh events cap integration error.
constexpr double kOccTolerance = 0.05;
}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(std::move(config)),
      occupancy_([&] {
        STAC_REQUIRE(!config_.workloads.empty());
        STAC_REQUIRE(config_.staps.size() == config_.workloads.size());
        std::vector<cat::PolicyAllocations> ps;
        ps.reserve(config_.staps.size());
        for (const auto& s : config_.staps) ps.push_back(s.allocations);
        // total_ways only bounds the plan; derive from the largest setting.
        std::uint32_t ways = 1;
        for (const auto& p : ps) ways = std::max(ways, p.boosted.end());
        return OccupancyModel(cat::AllocationPlan(ways, ps));
      }()),
      rng_(config_.seed) {
  wl_.resize(config_.workloads.size());
  for (std::size_t w = 0; w < wl_.size(); ++w) {
    WlState& s = wl_[w];
    s.cfg = config_.workloads[w];
    STAC_REQUIRE(s.cfg.model != nullptr);
    STAC_REQUIRE(s.cfg.servers >= 1);
    STAC_REQUIRE(s.cfg.utilization > 0.0 && s.cfg.utilization < 1.0);
    s.stap = config_.staps[w];
    s.scaled_base_service =
        s.cfg.time_scale * s.cfg.model->baseline_service_time();
  }
  // Make the heap deterministic across runs: reserve generously.
  heap_.reserve(4096);

  // Global fill normalizer kappa: with all workloads executing at their
  // baseline allocation, total fill pressure equals `occupancy_response`
  // region-capacities per time unit.  Ratios between workloads follow
  // their physical miss rates.
  double total_baseline_missrate = 0.0;
  for (const auto& s : wl_) {
    const double base_ways =
        static_cast<double>(s.stap.allocations.dflt.length);
    total_baseline_missrate += static_cast<double>(s.cfg.servers) *
                               s.cfg.model->miss_rate(base_ways);
  }
  fill_kappa_ = total_baseline_missrate > 0.0
                    ? config_.occupancy_response / total_baseline_missrate
                    : 0.0;
  occupancy_.set_background_churn(config_.background_churn);
  occupancy_.set_thrash_sensitivity(config_.thrash_sensitivity);
}

double Testbed::effective_allocation(double service_time_policy,
                                     double service_time_default,
                                     double allocation_ratio) {
  STAC_REQUIRE(service_time_policy > 0.0);
  STAC_REQUIRE(service_time_default > 0.0);
  STAC_REQUIRE(allocation_ratio >= 1.0);
  const double speedup = service_time_default / service_time_policy;
  return speedup / allocation_ratio;
}

void Testbed::schedule(double time, EventType type, std::uint32_t wlid,
                       std::uint32_t query, std::uint32_t gen) {
  heap_.push_back(Event{time, seq_++, type, wlid, query, gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void Testbed::record_trace_sample(double at) {
  if (trace_.size() >= config_.max_trace_samples) return;
  // Chaos hook: a counter read can be lost (kDrop) or return garbage
  // (kCorrupt), exactly like a flaky MSR/CMT read on real hardware.  Keyed
  // on (testbed seed, sample ordinal): the schedule is deterministic per
  // run even when many testbeds share the injector across a thread pool.
  double corrupt_factor = 1.0;
  if (FaultInjector::global().armed()) {
    const FaultOutcome fault = FaultInjector::global().evaluate(
        "profiler.sample", fault_key(config_.seed, ++sample_ordinal_));
    if (fault.action == FaultAction::kDrop) {
      ++faults_.dropped_samples;
      obs::instant("fault.profiler.sample.drop", "fault");
      return;
    }
    if (fault.action == FaultAction::kCorrupt) {
      ++faults_.corrupted_samples;
      corrupt_factor = fault.corrupt_factor;
      obs::instant("fault.profiler.sample.corrupt", "fault");
    }
  }
  TraceSample sample;
  sample.time = at;
  sample.per_workload.reserve(wl_.size());
  for (std::size_t w = 0; w < wl_.size(); ++w) {
    const WlState& s = wl_[w];
    TraceSample::PerWorkload pw;
    pw.busy = static_cast<std::uint32_t>(s.in_service.size());
    pw.queued = static_cast<std::uint32_t>(s.fifo.size());
    pw.boosted = s.boost_refs > 0;
    double occ = 0.0;
    for (std::size_t r = 0; r < occupancy_.region_count(); ++r)
      occ += occupancy_.occupancy(r, w);
    pw.occupancy = occ;
    pw.effective_ways = occupancy_.effective_ways(w);
    pw.exec_rate = s.next_rate;
    if (corrupt_factor != 1.0) {  // garbage counter row
      pw.occupancy *= corrupt_factor;
      pw.effective_ways *= corrupt_factor;
      pw.exec_rate *= corrupt_factor;
    }
    sample.per_workload.push_back(pw);
  }
  trace_.push_back(std::move(sample));
}

void Testbed::advance_to(double t) {
  STAC_REQUIRE(t >= now_ - 1e-12);
  // Emit trace samples falling inside (now_, t] before state moves past
  // them; state reported is the held state, matching a hardware counter
  // read mid-interval.
  if (config_.sample_interval > 0.0) {
    while (next_sample_ <= t) {
      record_trace_sample(next_sample_);
      next_sample_ += config_.sample_interval;
    }
  }
  const double dt = std::max(0.0, t - now_);
  if (t != now_)
    for (WlState& s : wl_) s.completions_current = false;
  if (dt > 0.0) {
    // Update occupancy and integrate work done at the held rates.
    occupancy_.advance(dt);
    for (std::size_t w = 0; w < wl_.size(); ++w) {
      WlState& s = wl_[w];
      for (std::size_t qid : s.in_service) {
        Query& q = s.queries[qid];
        q.remaining = std::max(0.0, q.remaining - s.next_rate * dt);
      }
      const double eff = occupancy_.effective_ways(w);
      s.eff_ways_integral += eff * dt;
      double occ_total = 0.0;
      for (std::size_t r = 0; r < occupancy_.region_count(); ++r)
        occ_total += occupancy_.occupancy(r, w);
      s.occ_integral += occ_total * dt;
      if (s.boost_refs > 0) s.boost_time += dt;
    }
  }
  now_ = t;
}

void Testbed::recompute_rates() {
  for (std::size_t w = 0; w < wl_.size(); ++w) {
    WlState& s = wl_[w];
    const double eff = occupancy_.effective_ways(w);
    const double mean_service =
        s.cfg.time_scale * s.cfg.model->mean_service_time(eff);
    const double old_rate = s.next_rate;
    s.next_rate = 1.0 / mean_service;
    if (s.next_rate != old_rate) s.completions_current = false;
    // Execution rate moved: previously scheduled completion times are
    // wrong for this workload — reschedule them (lazy deletion skips the
    // stale events).
    if (old_rate > 0.0 &&
        std::abs(s.next_rate - old_rate) > 1e-9 * old_rate)
      reschedule_completions(static_cast<std::uint32_t>(w));
    // Fill pressure while boosted: physical miss rate of the executing
    // queries, normalized by the global kappa so that fill-rate ratios
    // between workloads stay physical under time compression.
    double fill = 0.0;
    if (s.boost_refs > 0 && !s.in_service.empty()) {
      fill = static_cast<double>(s.in_service.size()) *
             s.cfg.model->miss_rate(eff) * fill_kappa_;
    }
    s.miss_fill_rate = fill;
    occupancy_.set_fill_rate(w, fill);
  }
}

void Testbed::reschedule_completions(std::uint32_t wlid) {
  WlState& s = wl_[wlid];
  if (s.completions_current) return;
  s.completions_current = true;
  for (std::size_t qid : s.in_service) {
    Query& q = s.queries[qid];
    ++q.gen;
    const double eta =
        s.next_rate > 0.0 ? q.remaining / s.next_rate : config_.max_time;
    schedule(now_ + eta, EventType::kCompletion, wlid,
             static_cast<std::uint32_t>(qid), q.gen);
  }
}

void Testbed::maybe_schedule_refresh() {
  const double step = occupancy_.suggested_step(kOccTolerance);
  if (std::isfinite(step)) {
    ++refresh_gen_;
    schedule(now_ + step, EventType::kRefresh, 0, 0, refresh_gen_);
  }
}

void Testbed::start_service(std::uint32_t wlid, std::size_t qid) {
  WlState& s = wl_[wlid];
  Query& q = s.queries[qid];
  q.start = now_;
  s.in_service.push_back(qid);
  s.completions_current = false;
  // §3.3: when a query begins processing, time waiting in the system is
  // compared against the warning — a query may start already overdue.
  if (!q.boosted &&
      s.stap.should_boost(now_ - q.arrival, q.expected_service)) {
    q.boosted = true;
    set_boost(wlid, true);
  }
}

void Testbed::handle_arrival(std::uint32_t wlid) {
  WlState& s = wl_[wlid];
  // Next arrival.
  const double rate = s.cfg.utilization *
                      static_cast<double>(s.cfg.servers) /
                      s.scaled_base_service;
  InterarrivalSampler inter(s.cfg.arrival_kind, rate);
  schedule(now_ + inter.sample(rng_), EventType::kArrival, wlid);

  // Admit the query.
  Query q;
  q.arrival = now_;
  q.demand = s.cfg.model->sample_demand(rng_);
  // Chaos hook: a latency spike (interference burst, minor page faults)
  // inflates this query's demand by the injected relative amount.
  if (FaultInjector::global().armed()) {
    const FaultOutcome fault = FaultInjector::global().evaluate(
        "testbed.service", fault_key(config_.seed, ++arrival_ordinal_));
    if (fault.action == FaultAction::kLatency) {
      q.demand *= 1.0 + std::max(0.0, fault.latency);
      ++faults_.latency_injections;
      obs::instant("fault.testbed.service", "fault");
    }
  }
  q.remaining = q.demand;
  q.expected_service = s.scaled_base_service;
  s.queries.push_back(q);
  const std::size_t qid = s.queries.size() - 1;

  if (s.stap.timeout_rel < cat::kNeverBoostTimeout) {
    schedule(now_ + s.stap.timeout_rel * q.expected_service,
             EventType::kTimeout, wlid, static_cast<std::uint32_t>(qid));
  }
  if (s.in_service.size() < s.cfg.servers) {
    start_service(wlid, qid);
    recompute_rates();
    reschedule_completions(wlid);
    maybe_schedule_refresh();
  } else {
    s.fifo.push_back(qid);
  }
}

void Testbed::handle_completion(std::uint32_t wlid, std::uint32_t qid,
                                std::uint32_t gen) {
  WlState& s = wl_[wlid];
  Query& q = s.queries[qid];
  if (q.done || q.gen != gen) return;  // stale event
  if (q.remaining > 1e-9) {
    // Rates changed since scheduling; push the completion out.
    ++q.gen;
    schedule(now_ + q.remaining / s.next_rate, EventType::kCompletion, wlid,
             qid, q.gen);
    return;
  }
  q.done = true;
  s.in_service.erase(
      std::find(s.in_service.begin(), s.in_service.end(), qid));
  s.completions_current = false;
  if (q.boosted) set_boost(wlid, false);

  ++s.total_completed;
  if (s.total_completed > config_.warmup_completions &&
      s.result.completed < config_.target_completions) {
    ++s.result.completed;
    s.result.response_times.add(now_ - q.arrival);
    s.result.queue_delays.add(q.start - q.arrival);
    s.result.service_durations.add(now_ - q.start);
    if (q.boosted) ++s.result.boosted_queries;
  }

  if (!s.fifo.empty()) {
    const std::size_t next = s.fifo.front();
    s.fifo.pop_front();
    start_service(wlid, next);
  }
  recompute_rates();
  reschedule_completions(wlid);
  maybe_schedule_refresh();
}

void Testbed::handle_timeout(std::uint32_t wlid, std::uint32_t qid) {
  WlState& s = wl_[wlid];
  Query& q = s.queries[qid];
  if (q.done || q.boosted) return;
  q.boosted = true;
  set_boost(wlid, true);
}

void Testbed::set_boost(std::uint32_t wlid, bool up) {
  WlState& s = wl_[wlid];
  const bool was = s.boost_refs > 0;
  if (up) {
    ++s.boost_refs;
  } else {
    STAC_REQUIRE(s.boost_refs > 0);
    --s.boost_refs;
  }
  const bool is = s.boost_refs > 0;
  if (was != is) {
    ++s.result.cos_switches;
    if (is && config_.max_boost_lease_rel > 0.0) {
      // Grant watchdog: arm a lease on this boost epoch.  The generation
      // stamp invalidates the event if the class reverts (and possibly
      // re-boosts) before the lease expires.
      ++s.lease_gen;
      schedule(now_ + config_.max_boost_lease_rel * s.scaled_base_service,
               EventType::kLease, wlid, 0, s.lease_gen);
    } else if (!is) {
      ++s.lease_gen;  // epoch over; any armed lease event is now stale
    }
    recompute_rates();
    // Rates themselves move only via occupancy, but fill pressure changed;
    // refresh pacing must follow.
    maybe_schedule_refresh();
  }
}

void Testbed::force_revoke_boost(std::uint32_t wlid) {
  WlState& s = wl_[wlid];
  if (s.boost_refs == 0) return;
  // Every outstanding grant is dropped: in-flight and queued queries lose
  // their boosted flag, so their eventual completions do not decrement a
  // refcount that no longer carries their grant (no underflow, no leak).
  for (std::size_t qid : s.in_service) s.queries[qid].boosted = false;
  for (std::size_t qid : s.fifo) s.queries[qid].boosted = false;
  s.boost_refs = 0;
  ++s.lease_gen;
  ++s.result.cos_switches;
  ++faults_.watchdog_revocations;
  obs::instant("testbed.watchdog_revoke", "fault");
  recompute_rates();
  maybe_schedule_refresh();
}

bool Testbed::all_done() const {
  for (const auto& s : wl_)
    if (s.result.completed < config_.target_completions) return false;
  return true;
}

TestbedResult Testbed::run() {
  STAC_TRACE_SPAN(span, "testbed.run", "queueing");
  span.arg("workloads", static_cast<std::uint64_t>(wl_.size()));
  // Kick off one arrival per workload (staggered by the sampler itself).
  for (std::uint32_t w = 0; w < wl_.size(); ++w) {
    const WlState& s = wl_[w];
    const double rate = s.cfg.utilization *
                        static_cast<double>(s.cfg.servers) /
                        s.scaled_base_service;
    InterarrivalSampler inter(s.cfg.arrival_kind, rate);
    schedule(inter.sample(rng_), EventType::kArrival, w);
  }
  recompute_rates();
  next_sample_ = config_.sample_interval;

  TestbedResult result;
  while (!heap_.empty()) {
    if (all_done()) break;
    if (++events_ > config_.max_events) {
      result.hit_event_cap = true;
      break;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Event ev = heap_.back();
    heap_.pop_back();
    if (ev.time > config_.max_time) break;
    advance_to(ev.time);
    switch (ev.type) {
      case EventType::kArrival:
        handle_arrival(ev.wl);
        break;
      case EventType::kCompletion:
        handle_completion(ev.wl, ev.query, ev.gen);
        break;
      case EventType::kTimeout:
        handle_timeout(ev.wl, ev.query);
        break;
      case EventType::kRefresh:
        if (ev.gen != refresh_gen_) break;  // superseded
        recompute_rates();
        for (std::uint32_t w = 0; w < wl_.size(); ++w)
          reschedule_completions(w);
        maybe_schedule_refresh();
        break;
      case EventType::kLease:
        if (ev.gen != wl_[ev.wl].lease_gen) break;  // stale lease
        force_revoke_boost(ev.wl);
        break;
    }
  }

  result.sim_time = now_;
  result.events_processed = events_;
  result.trace = std::move(trace_);
  result.faults = faults_;
  result.per_workload.reserve(wl_.size());
  for (auto& s : wl_) {
    if (now_ > 0.0) {
      s.result.boost_time_fraction = s.boost_time / now_;
      s.result.mean_effective_ways = s.eff_ways_integral / now_;
      s.result.mean_occupancy = s.occ_integral / now_;
    }
    // Teardown accounting: a healthy run ends with the refcount exactly
    // covering the still-in-flight boosted queries — anything else is a
    // leaked or double-released grant.
    s.result.final_boost_refs = s.boost_refs;
    std::uint32_t inflight_boosted = 0;
    for (std::size_t qid : s.in_service)
      if (s.queries[qid].boosted) ++inflight_boosted;
    for (std::size_t qid : s.fifo)
      if (s.queries[qid].boosted) ++inflight_boosted;
    s.result.final_inflight_boosted = inflight_boosted;
    result.per_workload.push_back(std::move(s.result));
  }
  span.arg("events", events_);
  span.arg("sim_time", now_);
  obs::count("testbed.runs");
  obs::count("testbed.events", events_);
  return result;
}

}  // namespace stac::queueing
