// The Stage-3 simulation memoizer: hits must be bit-identical stand-ins
// for fresh simulations, chaos must bypass the cache, and a policy sweep
// must actually reuse (the ISSUE-4 acceptance line: >50% hit rate on a
// 25-cell grid).
#include "core/rt_prediction_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <thread>

#include "common/fault_injection.hpp"
#include "core/policy_explorer.hpp"
#include "core/rt_predictor.hpp"
#include "obs/metrics.hpp"

namespace stac::core {
namespace {

using profiler::Profiler;
using profiler::ProfilerConfig;
using profiler::RuntimeCondition;
using queueing::GGkConfig;
using queueing::GGkResult;

ProfilerConfig fast_config() {
  ProfilerConfig cfg;
  cfg.target_completions = 300;
  cfg.warmup_completions = 40;
  cfg.max_windows = 1;
  cfg.accesses_per_sample = 800;
  return cfg;
}

RuntimeCondition condition(double util, double timeout) {
  RuntimeCondition c;
  c.primary = wl::Benchmark::kKmeans;
  c.collocated = wl::Benchmark::kBfs;
  c.util_primary = util;
  c.util_collocated = util;
  c.timeout_primary = timeout;
  c.timeout_collocated = timeout;
  c.seed = 77;
  return c;
}

GGkConfig small_sim(std::uint64_t seed) {
  GGkConfig c;
  c.utilization = 0.8;
  c.servers = 2;
  c.service_cv = 1.0;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 2000;
  c.warmup = 100;
  c.seed = seed;
  return c;
}

/// Field-by-field bit-pattern equality (NaN p95s compare equal).
void expect_bit_identical(const GGkSummary& a, const GGkSummary& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_rt),
            std::bit_cast<std::uint64_t>(b.mean_rt));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.p95_rt),
            std::bit_cast<std::uint64_t>(b.p95_rt));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_queue_delay),
            std::bit_cast<std::uint64_t>(b.mean_queue_delay));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.boosted_queries, b.boosted_queries);
}

TEST(RtPredictionCache, HitReturnsBitIdenticalResult) {
  RtPredictionCache cache;
  const GGkConfig c = small_sim(5);
  const GGkSummary first = cache.simulate(c);
  const GGkSummary second = cache.simulate(c);
  expect_bit_identical(first, second);
  // The summary reads exactly what the fresh run's sort-based queries do.
  const GGkResult fresh = queueing::simulate_ggk(c);
  EXPECT_EQ(first.completed, fresh.completed);
  EXPECT_EQ(first.boosted_queries, fresh.boosted_queries);
  EXPECT_EQ(first.mean_rt, fresh.response_times.mean());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first.p95_rt),
            std::bit_cast<std::uint64_t>(fresh.response_times.percentile(0.95)));
  EXPECT_EQ(first.mean_queue_delay, fresh.mean_queue_delay);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
}

TEST(RtPredictionCache, ConcurrentMemoHitReadersNeverWrite) {
  RtPredictionCache cache;
  const GGkConfig c = small_sim(6);
  const GGkSummary want = cache.simulate(c);  // miss: the summary is stored

  // Two readers hit the stored entry at the same time; each gets its own
  // copy, so neither can disturb the other (the TSan leg runs this test).
  GGkSummary a_hit, b_hit;
  std::thread a([&] { a_hit = cache.simulate(c); });
  std::thread b([&] { b_hit = cache.simulate(c); });
  a.join();
  b.join();
  EXPECT_EQ(cache.stats().hits, 2u);
  expect_bit_identical(a_hit, want);
  expect_bit_identical(b_hit, want);
}

TEST(RtPredictionCache, SummaryOfEmptyRunIsNoData) {
  const GGkSummary s = GGkSummary::of(GGkResult{});
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.mean_rt, 0.0);
  EXPECT_TRUE(std::isnan(s.p95_rt));
  EXPECT_EQ(s.boosted_fraction(), 0.0);
}

TEST(RtPredictionCache, KeyIsBitExactOverEveryField) {
  RtPredictionCache cache;
  GGkConfig c = small_sim(5);
  (void)cache.simulate(c);
  // Any field nudge — including a one-ulp double change and the boost
  // semantics flag — must miss.
  GGkConfig c2 = c;
  c2.seed += 1;
  GGkConfig c3 = c;
  c3.utilization = std::nextafter(c3.utilization, 1.0);
  GGkConfig c4 = c;
  c4.warmup += 1;
  GGkConfig c5 = c;
  c5.class_level_boost = !c5.class_level_boost;
  for (const GGkConfig& v : {c2, c3, c4, c5}) (void)cache.simulate(v);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 5u);
  EXPECT_EQ(cache.size(), 5u);
}

TEST(RtPredictionCache, DisabledCacheNeverStores) {
  RtPredictionCache cache(/*enabled=*/false);
  const GGkConfig c = small_sim(5);
  (void)cache.simulate(c);
  (void)cache.simulate(c);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(RtPredictionCache, ArmedChaosBypassesInBothDirections) {
  RtPredictionCache cache;
  const GGkConfig c = small_sim(5);
  const GGkSummary clean = cache.simulate(c);  // miss, stored
  {
    FaultPlan plan;
    plan.seed = 99;
    plan.add({.point = "ggk.service",
              .action = FaultAction::kLatency,
              .probability = 0.3,
              .latency = 5.0});
    FaultScope scope(plan);
    const GGkSummary chaotic = cache.simulate(c);
    // Not served from the cache (the chaotic run really injected and ran
    // slower), and the chaotic result did not overwrite the clean entry.
    EXPECT_GT(FaultInjector::global().stats("ggk.service").injected, 0u);
    EXPECT_GT(chaotic.mean_rt, clean.mean_rt);
    EXPECT_EQ(cache.size(), 1u);
  }
  const GGkSummary after = cache.simulate(c);
  expect_bit_identical(after, clean);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(RtPredictionCache, MemoizedPredictorMatchesUnmemoized) {
  Profiler profiler(fast_config());
  RtPredictorConfig on;
  on.analytic_ea = true;
  on.memoize = true;
  RtPredictorConfig off = on;
  off.memoize = false;
  RtPredictor pon(profiler, nullptr, nullptr, on);
  RtPredictor poff(profiler, nullptr, nullptr, off);
  for (const double timeout : {0.5, 2.0}) {
    const RtPrediction a = pon.predict(condition(0.8, timeout));
    const RtPrediction b = poff.predict(condition(0.8, timeout));
    EXPECT_EQ(a.mean_rt, b.mean_rt);
    EXPECT_EQ(a.p95_rt, b.p95_rt);
    EXPECT_EQ(a.mean_queue_delay, b.mean_queue_delay);
    EXPECT_EQ(a.boosted_fraction, b.boosted_fraction);
  }
  EXPECT_EQ(poff.cache_stats().hits + poff.cache_stats().misses, 0u);
}

TEST(RtPredictionCache, CapacityBoundsGrowthViaEpochFlush) {
  // A drifting-condition controller keys a fresh config every epoch; the
  // capacity bound (flush-at-capacity) must keep the map finite while the
  // "rt_cache.size" gauge tracks the live entry count.
  RtPredictionCache cache(/*enabled=*/true, /*capacity=*/8);
  EXPECT_EQ(cache.capacity(), 8u);
  auto& gauge = obs::MetricsRegistry::global().gauge("rt_cache.size");
  for (std::uint64_t i = 0; i < 50; ++i) {
    GGkConfig c = small_sim(1000 + i);  // 50 distinct keys
    c.queries = 50;                     // keep each miss cheap
    c.warmup = 5;
    (void)cache.simulate(c);
    ASSERT_LE(cache.size(), 8u) << "after insert " << i;
    EXPECT_EQ(gauge.value(), static_cast<double>(cache.size()));
  }
  EXPECT_EQ(cache.stats().misses, 50u);
  // Entries cached since the last flush still hit.
  GGkConfig again = small_sim(1000 + 49);
  again.queries = 50;
  again.warmup = 5;
  (void)cache.simulate(again);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(RtPredictionCache, ZeroCapacityClampsToOne) {
  RtPredictionCache cache(true, 0);
  EXPECT_EQ(cache.capacity(), 1u);
  GGkConfig c = small_sim(3);
  c.queries = 50;
  c.warmup = 5;
  (void)cache.simulate(c);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RtPredictionCache, MemoizeCapacityKnobReachesThePredictorCache) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  cfg.sim_queries = 200;
  cfg.sim_warmup = 20;
  cfg.memoize_capacity = 4;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  for (int i = 0; i < 12; ++i)
    (void)pred.predict(condition(0.55 + 0.03 * i, 1.0));
  EXPECT_LE(pred.cache_size(), 4u);
  EXPECT_GT(pred.cache_stats().misses, 0u);
}

TEST(RtPredictionCache, PolicySweepReusesMostSimulations) {
  // The ISSUE-4 acceptance bar: on the paper's 25-cell grid the memoizer
  // absorbs >50% of Stage-3 simulations (seeds are cell-independent and,
  // with analytic EA, collocated configs repeat across rows).
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  ExplorerConfig ex;  // 5x5 grid
  const PolicyExploration out = explore_policies(pred, condition(0.8, 0.0), ex);
  EXPECT_EQ(out.predictions_made, 50u);
  const auto st = pred.cache_stats();
  EXPECT_GT(st.hits + st.misses, 0u);
  EXPECT_GT(st.hit_rate(), 0.5) << "hits=" << st.hits
                                << " misses=" << st.misses;
}

}  // namespace
}  // namespace stac::core
