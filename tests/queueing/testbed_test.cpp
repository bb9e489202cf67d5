#include "queueing/testbed.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "test_digest.hpp"
#include "wl/benchmark_suite.hpp"

namespace stac::queueing {
namespace {

constexpr double kWayBytes = 2.0 * 1024 * 1024;

class TestbedTest : public ::testing::Test {
 protected:
  TestbedTest()
      : kmeans_(wl::make_model(wl::Benchmark::kKmeans, 20, kWayBytes, 1)),
        bfs_(wl::make_model(wl::Benchmark::kBfs, 20, kWayBytes, 1)),
        plan_(cat::make_pair_plan(20, 1, 2)) {}

  TestbedConfig config(double timeout0, double timeout1, double util = 0.8,
                       std::uint64_t seed = 5) const {
    TestbedConfig cfg;
    TestbedWorkload w0;
    w0.model = &kmeans_;
    w0.utilization = util;
    w0.time_scale = 1.0 / 5.0;  // kmeans base 5 s -> 1 unit
    TestbedWorkload w1;
    w1.model = &bfs_;
    w1.utilization = util;
    w1.time_scale = 1.0 / 3.0;  // bfs base 3 s -> 1 unit
    cfg.workloads = {w0, w1};
    cfg.staps = cat::make_stap_vector(plan_, {timeout0, timeout1});
    cfg.target_completions = 1200;
    cfg.warmup_completions = 100;
    cfg.seed = seed;
    return cfg;
  }

  wl::WorkloadModel kmeans_;
  wl::WorkloadModel bfs_;
  cat::AllocationPlan plan_;
};

// Regression: mean_rt()/p95_rt() used to throw (vector::at out-of-range or
// a percentile-of-empty ContractViolation) for unknown workload ids and for
// runs with zero counted completions — both reachable under heavy fault
// injection.  They now report quiet NaN, the "no data" value every caller
// can branch on.
TEST_F(TestbedTest, RtAccessorsReturnNaNForUnknownOrEmptyWorkloads) {
  TestbedResult empty;  // no workloads at all
  EXPECT_TRUE(std::isnan(empty.mean_rt(0)));
  EXPECT_TRUE(std::isnan(empty.p95_rt(0)));

  const TestbedResult r = Testbed(config(6.0, 6.0)).run();
  EXPECT_TRUE(std::isnan(r.mean_rt(99)));  // out-of-range id
  EXPECT_TRUE(std::isnan(r.p95_rt(99)));
  EXPECT_FALSE(std::isnan(r.mean_rt(0)));  // healthy ids unaffected
  EXPECT_FALSE(std::isnan(r.p95_rt(0)));

  TestbedResult zero;  // a workload slot that completed nothing
  zero.per_workload.resize(1);
  EXPECT_TRUE(std::isnan(zero.mean_rt(0)));
  EXPECT_TRUE(std::isnan(zero.p95_rt(0)));
}

TEST_F(TestbedTest, CompletesRequestedQueries) {
  Testbed bed(config(6.0, 6.0));
  const TestbedResult r = bed.run();
  ASSERT_EQ(r.per_workload.size(), 2u);
  EXPECT_EQ(r.per_workload[0].completed, 1200u);
  EXPECT_EQ(r.per_workload[1].completed, 1200u);
  EXPECT_FALSE(r.hit_event_cap);
  EXPECT_GT(r.sim_time, 0.0);
}

TEST_F(TestbedTest, DeterministicForSeed) {
  const TestbedResult a = Testbed(config(1.0, 1.0)).run();
  const TestbedResult b = Testbed(config(1.0, 1.0)).run();
  EXPECT_DOUBLE_EQ(a.mean_rt(0), b.mean_rt(0));
  EXPECT_DOUBLE_EQ(a.p95_rt(1), b.p95_rt(1));
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST_F(TestbedTest, NeverBoostStaysAtPrivateWays) {
  const TestbedResult r = Testbed(config(6.0, 6.0)).run();
  EXPECT_NEAR(r.per_workload[0].mean_effective_ways, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.per_workload[0].boost_time_fraction, 0.0);
  EXPECT_EQ(r.per_workload[0].boosted_queries, 0u);
  EXPECT_EQ(r.per_workload[0].cos_switches, 0u);
}

TEST_F(TestbedTest, BoostingImprovesResponseTime) {
  const TestbedResult never = Testbed(config(6.0, 6.0)).run();
  const TestbedResult boosted = Testbed(config(1.0, 1.0)).run();
  EXPECT_LT(boosted.mean_rt(0), never.mean_rt(0));
  EXPECT_LT(boosted.mean_rt(1), never.mean_rt(1));
  EXPECT_GT(boosted.per_workload[0].boost_time_fraction, 0.0);
  EXPECT_GT(boosted.per_workload[0].mean_effective_ways, 1.0);
  EXPECT_GT(boosted.per_workload[0].cos_switches, 0u);
}

TEST_F(TestbedTest, HigherUtilizationRaisesResponseTime) {
  const TestbedResult lo = Testbed(config(6.0, 6.0, 0.4)).run();
  const TestbedResult hi = Testbed(config(6.0, 6.0, 0.9)).run();
  EXPECT_LT(lo.mean_rt(0), hi.mean_rt(0));
}

TEST_F(TestbedTest, ServiceDurationBoundedByMrcRange) {
  // Even fully boosted, service cannot beat the all-shared-ways time.
  const TestbedResult r = Testbed(config(0.0, 6.0)).run();
  const double best = kmeans_.mean_service_time(3.0) / 5.0;   // scaled
  const double worst = kmeans_.mean_service_time(1.0) / 5.0;  // scaled
  const double mean_service = r.per_workload[0].service_durations.mean();
  EXPECT_GT(mean_service, 0.8 * best);
  EXPECT_LT(mean_service, 1.3 * worst);
}

TEST_F(TestbedTest, AggressiveNeighbourErodesOccupancy) {
  // w0 boosting alone vs. both boosting: w0's effective ways shrink when
  // the neighbour contends for the shared region.
  const TestbedResult solo = Testbed(config(0.5, 6.0)).run();
  const TestbedResult both = Testbed(config(0.5, 0.0)).run();
  EXPECT_GT(solo.per_workload[0].mean_effective_ways,
            both.per_workload[0].mean_effective_ways);
}

TEST_F(TestbedTest, TraceSamplingProducesTimeline) {
  TestbedConfig cfg = config(1.0, 1.0);
  cfg.sample_interval = 0.5;
  const TestbedResult r = Testbed(cfg).run();
  EXPECT_GT(r.trace.size(), 10u);
  double prev = 0.0;
  for (const auto& s : r.trace) {
    EXPECT_GT(s.time, prev - 1e-12);
    prev = s.time;
    ASSERT_EQ(s.per_workload.size(), 2u);
    EXPECT_LE(s.per_workload[0].busy, 2u);
    EXPECT_GE(s.per_workload[0].effective_ways, 1.0);
    EXPECT_LE(s.per_workload[0].effective_ways, 3.0 + 1e-9);
  }
}

TEST_F(TestbedTest, NoTraceWithoutInterval) {
  const TestbedResult r = Testbed(config(1.0, 1.0)).run();
  EXPECT_TRUE(r.trace.empty());
}

TEST_F(TestbedTest, EventCapStopsRun) {
  TestbedConfig cfg = config(0.0, 0.0);
  cfg.max_events = 5000;
  const TestbedResult r = Testbed(cfg).run();
  EXPECT_TRUE(r.hit_event_cap);
}

TEST_F(TestbedTest, QueueDelayPlusServiceEqualsResponse) {
  const TestbedResult r = Testbed(config(2.0, 2.0)).run();
  const double lhs = r.per_workload[0].queue_delays.mean() +
                     r.per_workload[0].service_durations.mean();
  EXPECT_NEAR(lhs, r.mean_rt(0), 1e-6 * r.mean_rt(0));
}

TEST_F(TestbedTest, FaultCountersZeroWithoutChaos) {
  TestbedConfig cfg = config(1.0, 1.0);
  cfg.sample_interval = 0.5;
  const TestbedResult r = Testbed(cfg).run();
  EXPECT_EQ(r.faults.dropped_samples, 0u);
  EXPECT_EQ(r.faults.corrupted_samples, 0u);
  EXPECT_EQ(r.faults.latency_injections, 0u);
  EXPECT_EQ(r.faults.watchdog_revocations, 0u);
}

TEST_F(TestbedTest, ChaosDropsAndCorruptsTraceSamples) {
  TestbedConfig cfg = config(1.0, 1.0);
  cfg.sample_interval = 0.5;
  const std::size_t clean_samples = Testbed(cfg).run().trace.size();

  FaultPlan plan;
  plan.seed = 17;
  plan.add({.point = "profiler.sample",
            .action = FaultAction::kDrop,
            .probability = 0.15});
  plan.add({.point = "profiler.sample",
            .action = FaultAction::kCorrupt,
            .probability = 0.10,
            .corrupt_factor = 8.0});
  FaultScope scope(plan);
  const TestbedResult r = Testbed(cfg).run();
  EXPECT_GT(r.faults.dropped_samples, 0u);
  EXPECT_GT(r.faults.corrupted_samples, 0u);
  EXPECT_EQ(r.trace.size() + r.faults.dropped_samples, clean_samples);

  // Same seeds -> identical fault schedule and counters.
  const TestbedResult r2 = Testbed(cfg).run();
  EXPECT_EQ(r2.faults.dropped_samples, r.faults.dropped_samples);
  EXPECT_EQ(r2.faults.corrupted_samples, r.faults.corrupted_samples);
  EXPECT_EQ(r2.trace.size(), r.trace.size());
}

TEST_F(TestbedTest, ServiceLatencyInjectionSlowsQueries) {
  const double clean_rt = Testbed(config(6.0, 6.0)).run().mean_rt(0);

  FaultPlan plan;
  plan.seed = 23;
  plan.add({.point = "testbed.service",
            .action = FaultAction::kLatency,
            .probability = 0.2,
            .latency = 1.0});
  FaultScope scope(plan);
  const TestbedResult r = Testbed(config(6.0, 6.0)).run();
  EXPECT_GT(r.faults.latency_injections, 0u);
  EXPECT_GT(r.mean_rt(0), clean_rt);
}

TEST_F(TestbedTest, LeaseWatchdogRevokesLongBoosts) {
  // Aggressive boosting with a short lease: the watchdog must fire and the
  // run must still satisfy the teardown refcount invariant.
  TestbedConfig cfg = config(0.3, 0.3, 0.9);
  const double clean_boost_frac =
      Testbed(cfg).run().per_workload[0].boost_time_fraction;
  cfg.max_boost_lease_rel = 1.0;
  const TestbedResult r = Testbed(cfg).run();
  EXPECT_GT(r.faults.watchdog_revocations, 0u);
  // Revoked leases cap how long the class can stay boosted.
  EXPECT_LT(r.per_workload[0].boost_time_fraction, clean_boost_frac);
  for (const auto& w : r.per_workload)
    EXPECT_EQ(w.final_boost_refs, w.final_inflight_boosted);
}

TEST_F(TestbedTest, TeardownRefcountInvariantUnderCombinedChaos) {
  FaultPlan plan;
  plan.seed = 31;
  plan.add({.point = "testbed.service",
            .action = FaultAction::kLatency,
            .probability = 0.1,
            .latency = 2.0});
  plan.add({.point = "profiler.sample",
            .action = FaultAction::kDrop,
            .probability = 0.1});
  FaultScope scope(plan);
  TestbedConfig cfg = config(0.5, 0.5, 0.9);
  cfg.sample_interval = 0.5;
  cfg.max_boost_lease_rel = 2.0;
  const TestbedResult r = Testbed(cfg).run();
  ASSERT_EQ(r.per_workload.size(), 2u);
  for (const auto& w : r.per_workload) {
    EXPECT_EQ(w.final_boost_refs, w.final_inflight_boosted);
    EXPECT_EQ(w.completed, 1200u);
  }
}

/// Every sample, counter and time average of a run, as bit patterns.
void put(Digest& d, const TestbedResult& r) {
  for (const TestbedWorkloadResult& w : r.per_workload) {
    for (const SampleStats* st :
         {&w.response_times, &w.queue_delays, &w.service_durations}) {
      d.put(st->count());
      for (const double x : st->samples()) d.put(x);
    }
    d.put(w.completed);
    d.put(w.boosted_queries);
    d.put(w.boost_time_fraction);
    d.put(w.mean_effective_ways);
    d.put(w.mean_occupancy);
    d.put(w.cos_switches);
  }
  for (const TraceSample& t : r.trace) {
    d.put(t.time);
    for (const TraceSample::PerWorkload& p : t.per_workload) {
      d.put(p.busy);
      d.put(p.queued);
      d.put(p.boosted);
      d.put(p.occupancy);
      d.put(p.effective_ways);
      d.put(p.exec_rate);
    }
  }
  d.put(r.sim_time);
  d.put(r.faults.watchdog_revocations);
}

// Every sample, trace row and time average of runs across loads, timeouts
// and boost leases, pinned to a digest recorded before completions were
// deduplicated: skipping a reschedule that would only push an exact
// duplicate event must not move any output.  The event count did fall.
TEST_F(TestbedTest, OutputsPinnedAcrossPolicies) {
  Digest all;
  std::uint64_t events = 0;
  for (const double util : {0.5, 0.8, 0.93}) {
    for (const double timeout : {0.0, 0.5, 2.0, 6.0}) {
      for (const double lease : {0.0, 3.0}) {
        TestbedConfig cfg = config(timeout, 6.0 - timeout, util, 11);
        cfg.workloads[1].utilization = 1.3 - util;
        cfg.sample_interval = 0.5;
        cfg.max_boost_lease_rel = lease;
        const TestbedResult r = Testbed(cfg).run();
        ASSERT_FALSE(r.hit_event_cap);
        put(all, r);
        events += r.events_processed;
      }
    }
  }
  EXPECT_EQ(all.h, 0xbae25bd008af7f14ULL);
  // 761,951 events with the duplicates, 629,000 without them.  The count is
  // pinned exactly: a stale completion pop is still an integration
  // breakpoint for the occupancy and effective-ways time averages, so a
  // change to which events the testbed pops has to restate this count.
  EXPECT_EQ(events, 629000u);
}

TEST(TestbedChain, ThreeWorkloadChainCollocation) {
  // The maximal structure §2's conjectures permit: a chain where each
  // shared region has exactly two sharers and the middle workload can
  // reach both regions.
  constexpr double kWayBytes = 2.0 * 1024 * 1024;
  const auto m0 = wl::make_model(wl::Benchmark::kKmeans, 20, kWayBytes, 2);
  const auto m1 = wl::make_model(wl::Benchmark::kBfs, 20, kWayBytes, 2);
  const auto m2 = wl::make_model(wl::Benchmark::kKnn, 20, kWayBytes, 2);
  const cat::AllocationPlan plan = cat::make_chain_plan(20, 3, 2, 2);
  ASSERT_TRUE(plan.sharing_degree_at_most_two());

  auto run = [&](double t0, double t1, double t2) {
    TestbedConfig cfg;
    TestbedWorkload w0, w1, w2;
    w0.model = &m0;
    w0.utilization = 0.8;
    w0.time_scale = 1.0 / 5.0;
    w1.model = &m1;
    w1.utilization = 0.8;
    w1.time_scale = 1.0 / 3.0;
    w2.model = &m2;
    w2.utilization = 0.8;
    w2.time_scale = 1.0 / 2.0;
    cfg.workloads = {w0, w1, w2};
    cfg.staps = cat::make_stap_vector(plan, {t0, t1, t2});
    cfg.target_completions = 800;
    cfg.warmup_completions = 80;
    cfg.seed = 77;
    Testbed bed(cfg);
    return bed.run();
  };

  const TestbedResult never = run(6.0, 6.0, 6.0);
  ASSERT_EQ(never.per_workload.size(), 3u);
  for (const auto& w : never.per_workload) {
    EXPECT_EQ(w.completed, 800u);
    EXPECT_NEAR(w.mean_effective_ways, 2.0, 1e-9);
  }

  // Middle workload boosting alone can reach both shared regions: up to
  // 2 private + 2x2 shared = 6 effective ways.
  const TestbedResult mid = run(6.0, 0.0, 6.0);
  EXPECT_GT(mid.per_workload[1].mean_effective_ways, 3.0);
  EXPECT_LE(mid.per_workload[1].mean_effective_ways, 6.0 + 1e-9);
  EXPECT_LT(mid.mean_rt(1), never.mean_rt(1));
  // Ends stay at their private baseline.
  EXPECT_NEAR(mid.per_workload[0].mean_effective_ways, 2.0, 1e-9);
  EXPECT_NEAR(mid.per_workload[2].mean_effective_ways, 2.0, 1e-9);

  // All three boosting: everyone improves vs never-boost, and the middle
  // workload's gain shrinks relative to boosting alone (contention on
  // both of its regions).
  const TestbedResult all = run(0.5, 0.5, 0.5);
  for (std::size_t w = 0; w < 3; ++w)
    EXPECT_LT(all.mean_rt(w), never.mean_rt(w) * 1.05);
  EXPECT_LT(all.per_workload[1].mean_effective_ways,
            mid.per_workload[1].mean_effective_ways);
}

TEST(TestbedStatics, EffectiveAllocationFormula) {
  // Speedup 1.5 over allocation increase 3 -> EA = 0.5.
  EXPECT_DOUBLE_EQ(Testbed::effective_allocation(2.0, 3.0, 3.0), 0.5);
  // No speedup -> EA = 1/ratio.
  EXPECT_DOUBLE_EQ(Testbed::effective_allocation(3.0, 3.0, 3.0), 1.0 / 3.0);
  // Perfect conversion: speedup == ratio -> EA = 1.
  EXPECT_DOUBLE_EQ(Testbed::effective_allocation(1.0, 3.0, 3.0), 1.0);
  EXPECT_THROW(Testbed::effective_allocation(0.0, 1.0, 2.0),
               ContractViolation);
}

TEST(TestbedConfigValidation, RejectsBadInputs) {
  TestbedConfig cfg;
  EXPECT_THROW(Testbed{cfg}, ContractViolation);  // no workloads
}

}  // namespace
}  // namespace stac::queueing
