// simulate_ggk (pre-drawn CRN streams + 4-ary lazy-deletion heap) vs the
// single-binary-heap reference engine with inline draws: the two must
// process the identical event sequence and produce bit-identical results on
// every field, including under heavy boost churn (stale-generation
// completions after class switch/revert must be dropped, never applied) and
// under chaos.  A recorded digest pins the engine's output independently of
// the reference, and the CRN stream cache's reuse and capacity bound are
// checked here too.
#include "queueing/ggk_simulator.hpp"

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "queueing/ggk_reference.hpp"
#include "test_digest.hpp"

namespace stac::queueing {
namespace {

void expect_bit_identical(const GGkResult& want, const GGkResult& got,
                          const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.completed, got.completed);
  EXPECT_EQ(want.boosted_queries, got.boosted_queries);
  EXPECT_EQ(want.cos_switches, got.cos_switches);
  EXPECT_EQ(want.residual_boost_refs, got.residual_boost_refs);
  EXPECT_EQ(want.residual_overdue_jobs, got.residual_overdue_jobs);
  EXPECT_EQ(want.negative_sojourns, got.negative_sojourns);
  EXPECT_EQ(want.latency_injections, got.latency_injections);
  EXPECT_EQ(want.mean_queue_delay, got.mean_queue_delay);
  // Bitwise equality of every retained sample, in completion order.
  const auto ws = want.response_times.samples();
  const auto gs = got.response_times.samples();
  ASSERT_EQ(ws.size(), gs.size());
  for (std::size_t i = 0; i < ws.size(); ++i)
    ASSERT_EQ(ws[i], gs[i]) << "response sample " << i << " diverges";
}

/// {reference engine, simulate_ggk} for one config.
std::pair<GGkResult, GGkResult> run_both(const GGkConfig& c) {
  return {reference::simulate(c), simulate_ggk(c)};
}

/// Heavy tail, near-saturation, both boost semantics, aggressive and lazy
/// timeouts, multiple seeds: the corners where event ordering, lazy
/// deletion and tie-breaking could plausibly diverge.
std::vector<GGkConfig> adversarial_grid() {
  std::vector<GGkConfig> grid;
  for (const double cv : {0.3, 1.0, 2.5}) {
    for (const double util : {0.5, 0.95}) {
      for (const bool class_level : {true, false}) {
        for (const double timeout : {0.25, 2.0}) {
          for (const std::uint64_t seed : {7u, 99u}) {
            GGkConfig c;
            c.utilization = util;
            c.servers = 3;
            c.mean_service = 1.0;
            c.service_cv = cv;
            c.timeout_rel = timeout;
            c.effective_allocation = 0.6;
            c.allocation_ratio = 3.0;
            c.class_level_boost = class_level;
            c.queries = 6000;
            c.warmup = 300;
            c.seed = seed;
            grid.push_back(c);
          }
        }
      }
    }
  }
  return grid;
}

TEST(GGkFastEngine, BitIdenticalUnderAdversarialSweep) {
  for (const GGkConfig& c : adversarial_grid()) {
    const auto [ref, fast] = run_both(c);
    expect_bit_identical(
        ref, fast,
        "cv=" + std::to_string(c.service_cv) +
            " util=" + std::to_string(c.utilization) +
            " class=" + std::to_string(c.class_level_boost) +
            " timeout=" + std::to_string(c.timeout_rel) +
            " seed=" + std::to_string(c.seed));
  }
}

/// The adversarial grid, hashed over every GGkResult field.  Recorded when
/// the single-binary-heap engine still shipped in src/ and both engines
/// produced it: an anchor that holds even if the reference in
/// ggk_reference.hpp drifts.
TEST(GGkGolden, AdversarialGridDigest) {
  Digest d;
  for (const GGkConfig& c : adversarial_grid()) {
    const GGkResult r = simulate_ggk(c);
    const auto rt = r.response_times.samples();
    d.put_doubles(std::vector<double>(rt.begin(), rt.end()));
    d.put(r.mean_queue_delay);
    d.put(r.completed);
    d.put(r.boosted_queries);
    d.put(r.cos_switches);
    d.put(r.residual_boost_refs);
    d.put(r.residual_overdue_jobs);
    d.put(r.latency_injections);
    d.put(r.negative_sojourns);
  }
  EXPECT_EQ(d.h, 0xa2e342dc0b943a3aULL) << std::hex << d.h;
}

TEST(GGkFastEngine, BitIdenticalOnExactTimeTies) {
  // Random draws almost never put two events at one instant.  With constant
  // demand (cv = 0) and timeout_rel = 1, a job that starts service on
  // arrival at the default rate completes exactly at its timeout instant,
  // so the tie must break on schedule order (the timeout was queued first)
  // in both engines.
  for (const bool class_level : {true, false}) {
    for (const double util : {0.5, 0.9}) {
      GGkConfig c;
      c.utilization = util;
      c.servers = 2;
      c.service_cv = 0.0;
      c.timeout_rel = 1.0;
      c.effective_allocation = 0.6;
      c.allocation_ratio = 3.0;
      c.class_level_boost = class_level;
      c.queries = 3000;
      c.warmup = 100;
      c.seed = 5;
      const auto [ref, fast] = run_both(c);
      expect_bit_identical(ref, fast,
                           "class=" + std::to_string(class_level) +
                               " util=" + std::to_string(util));
    }
  }
}

TEST(GGkFastEngine, StaleGenerationsDroppedAcrossBoostChurn) {
  // An aggressive timeout at heavy load produces many class switch/revert
  // cycles; every switch reschedules all serving jobs and strands the
  // previously queued completions as stale generations.  If any stale event
  // were applied, completion times (and hence the bitwise comparison or the
  // teardown invariants) would diverge.
  GGkConfig c;
  c.utilization = 0.93;
  c.servers = 2;
  c.service_cv = 1.5;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 20000;
  c.warmup = 500;
  c.seed = 31;
  const auto [ref, fast] = run_both(c);
  // Churn actually happened (both directions of the class switch).
  EXPECT_GT(fast.cos_switches, 10u);
  EXPECT_GT(fast.boosted_queries, 0u);
  expect_bit_identical(ref, fast, "boost churn");
  EXPECT_EQ(fast.residual_boost_refs, fast.residual_overdue_jobs);
}

TEST(GGkFastEngine, BitIdenticalUnderServiceChaos) {
  FaultPlan plan;
  plan.seed = 4321;
  plan.add({.point = "ggk.service",
            .action = FaultAction::kLatency,
            .probability = 0.1,
            .latency = 5.0});
  FaultScope scope(plan);

  GGkConfig c;
  c.utilization = 0.9;
  c.servers = 2;
  c.service_cv = 2.0;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 10000;
  c.warmup = 500;
  c.seed = 3;
  const auto [ref, fast] = run_both(c);
  EXPECT_GT(fast.latency_injections, 0u);
  expect_bit_identical(ref, fast, "service chaos");
}

TEST(GGkFastEngine, CrnStreamCacheReusesAcrossTimeoutGrid) {
  clear_crn_stream_cache();
  auto& reg = obs::MetricsRegistry::global();
  const auto hits0 = reg.counter_value("ggk.crn_stream_hits");
  const auto misses0 = reg.counter_value("ggk.crn_stream_misses");

  GGkConfig c;
  c.utilization = 0.8;
  c.servers = 2;
  c.service_cv = 1.0;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 4000;
  c.warmup = 200;
  c.seed = 77;
  // A timeout grid at fixed (seed, load): one regeneration, then replays.
  GGkResult first;
  std::size_t cells = 0;
  for (const double timeout : {0.0, 0.5, 1.0, 2.0, 4.0}) {
    c.timeout_rel = timeout;
    const GGkResult r = simulate_ggk(c);
    if (cells++ == 0) first = r;
    EXPECT_EQ(r.completed, first.completed);
  }
  EXPECT_EQ(reg.counter_value("ggk.crn_stream_misses"), misses0 + 1);
  EXPECT_EQ(reg.counter_value("ggk.crn_stream_hits"), hits0 + cells - 1);

  // A replayed cell is bit-identical to a cold regeneration of it.
  clear_crn_stream_cache();
  c.timeout_rel = 0.5;
  const GGkResult cold = simulate_ggk(c);
  c.timeout_rel = 4.0;  // intervening cell shares the stream (same key)
  (void)simulate_ggk(c);
  c.timeout_rel = 0.5;
  const GGkResult warm = simulate_ggk(c);
  expect_bit_identical(cold, warm, "cold vs warm replay");
}

TEST(CrnStreamCache, CapacityKnobBoundsGrowth) {
  const std::size_t restore = crn_stream_cache_capacity();
  clear_crn_stream_cache();
  set_crn_stream_cache_capacity(4);
  EXPECT_EQ(crn_stream_cache_capacity(), 4u);

  // Drifting conditions: every simulation keys a fresh (seed) stream.  The
  // cache must flush at capacity instead of growing for the process
  // lifetime, and the size gauge must track the live entry count.
  GGkConfig c;
  c.utilization = 0.6;
  c.queries = 400;
  c.warmup = 40;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    c.seed = 1000 + seed;
    (void)simulate_ggk(c);
    EXPECT_LE(crn_stream_cache_size(), 4u);
  }
  EXPECT_EQ(
      static_cast<std::size_t>(obs::MetricsRegistry::global()
                                   .gauge("ggk.crn_stream_cache.size")
                                   .value()),
      crn_stream_cache_size());

  // Shrinking below the live count flushes immediately; zero clamps to 1.
  set_crn_stream_cache_capacity(0);
  EXPECT_EQ(crn_stream_cache_capacity(), 1u);
  c.seed = 9999;
  (void)simulate_ggk(c);
  EXPECT_EQ(crn_stream_cache_size(), 1u);

  set_crn_stream_cache_capacity(restore);
  clear_crn_stream_cache();
}

}  // namespace
}  // namespace stac::queueing
