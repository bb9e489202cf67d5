#include "queueing/ggk_simulator.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "common/stats.hpp"

namespace stac::queueing {
namespace {

GGkConfig base_config() {
  GGkConfig c;
  c.utilization = 0.7;
  c.servers = 1;
  c.mean_service = 1.0;
  c.service_cv = 1.0;  // ~M/M/1 when exponential-ish
  c.timeout_rel = 6.0;
  c.queries = 60000;
  c.warmup = 2000;
  c.seed = 11;
  return c;
}

TEST(GGkSimulator, MM1MeanResponseMatchesTheory) {
  // M/M/1: E[T] = 1 / (mu - lambda) = mean_service / (1 - rho).
  // Log-normal with CV 1 is not exactly exponential; allow a loose band.
  GGkConfig c = base_config();
  const GGkResult r = simulate_ggk(c);
  const double expected = 1.0 / (1.0 - 0.7);
  EXPECT_NEAR(r.response_times.mean(), expected, expected * 0.15);
}

/// Mean queue delay over `seeds` independent runs of `c` (seeds 1..n),
/// with the half-width of its two-sided 99.9% confidence interval.
struct SeedMean {
  double mean = 0.0;
  double half_width = 0.0;
};
SeedMean mean_queue_delay_over_seeds(GGkConfig c, std::size_t seeds) {
  StreamingStats st;
  for (std::size_t s = 1; s <= seeds; ++s) {
    c.seed = 1000 + s;
    st.add(simulate_ggk(c).mean_queue_delay);
  }
  // Student t quantile for 99.9% two-sided at 23 degrees of freedom.
  constexpr double kT = 3.768;
  return {st.mean(), kT * st.stddev() / std::sqrt(static_cast<double>(seeds))};
}

/// Pollaczek-Khinchine mean wait of an M/G/1 queue with load rho and
/// service mean `es` and coefficient of variation `cv`.
double pollaczek_khinchine(double rho, double es, double cv) {
  return rho * (1.0 + cv * cv) / (2.0 * (1.0 - rho)) * es;
}

// Analytical oracle: with one server and no boosting the simulator is an
// M/G/1 queue (Poisson arrivals, log-normal demand), whose mean wait is
// the Pollaczek-Khinchine value — Erlang C does not apply to log-normal
// service.  The P-K mean must fall inside the 24-seed 99.9% interval.
TEST(GGkSimulator, SingleServerWaitMatchesPollaczekKhinchine) {
  for (const double cv : {0.5, 1.0}) {
    GGkConfig c = base_config();
    c.utilization = 0.6;
    c.mean_service = 2.0;
    c.service_cv = cv;
    c.timeout_rel = 6.0;  // boosting off
    c.queries = 20000;
    c.warmup = 1000;
    const SeedMean m = mean_queue_delay_over_seeds(c, 24);
    const double want = pollaczek_khinchine(0.6, 2.0, cv);
    EXPECT_NEAR(m.mean, want, m.half_width) << "cv=" << cv;
    EXPECT_LT(m.half_width, 0.1 * want) << "interval too wide to test";
  }
}

// With timeout 0 every query is overdue on arrival, so the class runs
// boosted whenever it is busy: service is the base demand sped up by the
// boost multiplier max(1, EA x ratio), and P-K holds at that service mean.
TEST(GGkSimulator, ZeroTimeoutWaitMatchesPollaczekKhinchineAtBoostedRate) {
  GGkConfig c = base_config();
  c.utilization = 0.85;
  c.mean_service = 2.0;
  c.service_cv = 0.8;
  c.timeout_rel = 0.0;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;  // boost multiplier 1.8
  c.queries = 20000;
  c.warmup = 1000;
  const double mult = 1.8;
  const SeedMean m = mean_queue_delay_over_seeds(c, 24);
  const double want = pollaczek_khinchine(0.85 / mult, 2.0 / mult, 0.8);
  EXPECT_NEAR(m.mean, want, m.half_width);
  EXPECT_LT(m.half_width, 0.1 * want) << "interval too wide to test";
  // Unboosted, the same load would wait several times longer.
  EXPECT_LT(want, 0.25 * pollaczek_khinchine(0.85, 2.0, 0.8));
}

TEST(GGkSimulator, ResponseGrowsWithUtilization) {
  GGkConfig lo = base_config();
  lo.utilization = 0.3;
  GGkConfig hi = base_config();
  hi.utilization = 0.9;
  EXPECT_LT(simulate_ggk(lo).response_times.mean(),
            simulate_ggk(hi).response_times.mean());
}

TEST(GGkSimulator, MoreServersReduceWaiting) {
  GGkConfig one = base_config();
  GGkConfig four = base_config();
  four.servers = 4;  // same offered load per server
  EXPECT_LT(simulate_ggk(four).mean_queue_delay,
            simulate_ggk(one).mean_queue_delay);
}

TEST(GGkSimulator, BoostingReducesResponseTime) {
  GGkConfig never = base_config();
  never.utilization = 0.85;
  GGkConfig boost = never;
  boost.timeout_rel = 1.0;
  boost.effective_allocation = 0.6;
  boost.allocation_ratio = 3.0;  // boost multiplier 1.8
  const GGkResult rn = simulate_ggk(never);
  const GGkResult rb = simulate_ggk(boost);
  EXPECT_LT(rb.response_times.mean(), rn.response_times.mean());
  EXPECT_LT(rb.response_times.percentile(0.95),
            rn.response_times.percentile(0.95));
  EXPECT_GT(rb.boosted_queries, 0u);
  EXPECT_EQ(rn.boosted_queries, 0u);
}

TEST(GGkSimulator, ZeroTimeoutBoostsEverything) {
  GGkConfig c = base_config();
  c.timeout_rel = 0.0;
  c.effective_allocation = 0.5;
  c.allocation_ratio = 3.0;
  const GGkResult r = simulate_ggk(c);
  EXPECT_EQ(r.boosted_queries, r.completed);
}

TEST(GGkSimulator, UselessAllocationRatioIsNoop) {
  GGkConfig a = base_config();
  a.timeout_rel = 0.5;
  a.allocation_ratio = 1.0;  // a' == a: no speedup possible
  GGkConfig b = base_config();
  b.timeout_rel = 6.0;
  EXPECT_NEAR(simulate_ggk(a).response_times.mean(),
              simulate_ggk(b).response_times.mean(), 1e-9);
}

TEST(GGkSimulator, BoostMultiplierClampedAtOne) {
  // EA x ratio < 1 must never slow queries down.
  GGkConfig slow = base_config();
  slow.timeout_rel = 0.5;
  slow.effective_allocation = 0.1;
  slow.allocation_ratio = 2.0;  // raw multiplier 0.2 -> clamped to 1
  GGkConfig never = base_config();
  never.timeout_rel = 6.0;
  EXPECT_NEAR(simulate_ggk(slow).response_times.mean(),
              simulate_ggk(never).response_times.mean(), 1e-9);
}

TEST(GGkSimulator, DeterministicForSeed) {
  const GGkResult a = simulate_ggk(base_config());
  const GGkResult b = simulate_ggk(base_config());
  EXPECT_DOUBLE_EQ(a.response_times.mean(), b.response_times.mean());
}

TEST(GGkSimulator, FeedbackFieldsPopulated) {
  const GGkResult r = simulate_ggk(base_config());
  EXPECT_GT(r.mean_queue_delay, 0.0);
  EXPECT_EQ(r.completed, 58000u);
}

TEST(GGkSimulator, RejectsBadConfig) {
  GGkConfig c = base_config();
  c.utilization = 1.2;
  EXPECT_THROW((void)simulate_ggk(c), ContractViolation);
  c = base_config();
  c.queries = c.warmup;
  EXPECT_THROW((void)simulate_ggk(c), ContractViolation);
}

// Property sweep: response time is monotone in EA (better allocation can
// only help) at a fixed timeout.
class GGkEaSweep : public ::testing::TestWithParam<double> {};

TEST_P(GGkEaSweep, HigherEaNeverHurts) {
  GGkConfig lo = base_config();
  lo.utilization = 0.85;
  lo.timeout_rel = 1.0;
  lo.allocation_ratio = 3.0;
  lo.effective_allocation = GetParam();
  GGkConfig hi = lo;
  hi.effective_allocation = GetParam() + 0.2;
  EXPECT_GE(simulate_ggk(lo).response_times.mean(),
            simulate_ggk(hi).response_times.mean() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(EaLevels, GGkEaSweep,
                         ::testing::Values(0.34, 0.5, 0.6, 0.75));

TEST(GGkSimulator, ClassLevelBoostTrimsTailsAtHighLoad) {
  // §4 semantics: one overdue query boosts the whole class.  At heavy load
  // with a long timeout only a few queries go overdue, yet the class-wide
  // switch during congestion collapses the tail — the signature behaviour
  // a per-query model cannot produce.
  GGkConfig never = base_config();
  never.utilization = 0.93;
  never.servers = 2;
  never.service_cv = 0.3;
  GGkConfig rare = never;
  rare.timeout_rel = 4.0;
  rare.effective_allocation = 0.45;
  rare.allocation_ratio = 3.0;
  const GGkResult rn = simulate_ggk(never);
  const GGkResult rr = simulate_ggk(rare);
  // Few queries boosted...
  EXPECT_LT(static_cast<double>(rr.boosted_queries) /
                static_cast<double>(rr.completed),
            0.35);
  // ...but p95 falls by a large factor.
  EXPECT_LT(rr.response_times.percentile(0.95),
            0.7 * rn.response_times.percentile(0.95));
}

TEST(GGkSimulator, PerQueryBoostIsWeakerAtHeavyLoad) {
  // Ablation: per-query boosting misses the congestion-triggered class-
  // wide speedup, so at heavy load with a long timeout it predicts much
  // higher response times than class-level §4 semantics.
  GGkConfig cfg = base_config();
  cfg.utilization = 0.93;
  cfg.servers = 2;
  cfg.service_cv = 0.3;
  cfg.timeout_rel = 4.0;
  cfg.effective_allocation = 0.45;
  cfg.allocation_ratio = 3.0;
  GGkConfig per_query = cfg;
  per_query.class_level_boost = false;
  const GGkResult rc = simulate_ggk(cfg);
  const GGkResult rq = simulate_ggk(per_query);
  // Class-level semantics strictly dominate per-query at the mean and
  // even more so in the tail (the class switch fires during congestion).
  EXPECT_GT(rq.response_times.mean(), rc.response_times.mean());
  EXPECT_GT(rq.response_times.percentile(0.95),
            rc.response_times.percentile(0.95));
}

TEST(GGkSimulator, PerQueryBoostStillHelpsVsNever) {
  GGkConfig never = base_config();
  never.utilization = 0.9;
  GGkConfig per_query = never;
  per_query.timeout_rel = 1.0;
  per_query.effective_allocation = 0.6;
  per_query.allocation_ratio = 3.0;
  per_query.class_level_boost = false;
  EXPECT_LT(simulate_ggk(per_query).response_times.mean(),
            simulate_ggk(never).response_times.mean());
}

TEST(GGkSimulator, ResidualPrevalenceSpeedsDefaultPhase) {
  GGkConfig cold = base_config();
  cold.utilization = 0.8;
  cold.timeout_rel = 1.0;
  cold.effective_allocation = 0.5;
  cold.allocation_ratio = 3.0;
  cold.boost_prevalence = 0.0;
  GGkConfig warm = cold;
  warm.boost_prevalence = 0.8;  // fed back from a previous round
  EXPECT_LT(simulate_ggk(warm).response_times.mean(),
            simulate_ggk(cold).response_times.mean());
}

TEST(GGkSimulator, ResidualNeverExceedsBoostedRate) {
  // Even with prevalence 1 and weight 1, default-phase rate is capped by
  // the boosted rate, so always-boost still bounds the best case.
  GGkConfig full = base_config();
  full.utilization = 0.8;
  full.timeout_rel = 2.0;
  full.effective_allocation = 0.5;
  full.allocation_ratio = 3.0;
  full.boost_prevalence = 1.0;
  full.residual_weight = 1.0;
  GGkConfig always = full;
  always.timeout_rel = 0.0;
  always.boost_prevalence = 0.0;
  EXPECT_GE(simulate_ggk(full).response_times.mean(),
            simulate_ggk(always).response_times.mean() * 0.95);
}

// Regression: negative_sojourns was a post-hoc counter papering over a
// suspected event-ordering bug, and advance_to() silently clamped negative
// residual work.  The event clock is provably monotone (every push is
// `now + nonneg` and the heap pops in time order), so sojourns can never be
// negative — the simulator now asserts both invariants inline, and this
// sweep drives the adversarial corners (heavy tail, near-saturation, both
// boost semantics, chaos on and off) to pin them.
TEST(GGkSimulator, NegativeSojournsImpossibleUnderAdversarialSweep) {
  for (const double cv : {0.3, 1.0, 2.5}) {
    for (const double util : {0.5, 0.95}) {
      for (const bool class_level : {true, false}) {
        for (const std::uint64_t seed : {7u, 99u}) {
          GGkConfig c;
          c.utilization = util;
          c.servers = 2;
          c.mean_service = 1.0;
          c.service_cv = cv;
          c.timeout_rel = 0.5;  // aggressive boosting: many reschedules
          c.effective_allocation = 0.6;
          c.allocation_ratio = 3.0;
          c.class_level_boost = class_level;
          c.queries = 12'000;
          c.warmup = 500;
          c.seed = seed;
          const GGkResult r = simulate_ggk(c);
          EXPECT_EQ(r.negative_sojourns, 0u)
              << "cv=" << cv << " util=" << util
              << " class_level=" << class_level << " seed=" << seed;
          EXPECT_GE(r.response_times.min(), 0.0);
        }
      }
    }
  }
}

TEST(GGkSimulator, NegativeSojournsImpossibleWithServiceChaos) {
  // Latency injection inflates demand at arrival — it must never bend the
  // event clock or the sojourn accounting.
  FaultPlan plan;
  plan.seed = 1234;
  plan.add({.point = "ggk.service",
            .action = FaultAction::kLatency,
            .probability = 0.1,
            .latency = 5.0});
  FaultScope scope(plan);

  GGkConfig c;
  c.utilization = 0.9;
  c.servers = 2;
  c.mean_service = 1.0;
  c.service_cv = 2.0;
  c.timeout_rel = 0.5;
  c.effective_allocation = 0.6;
  c.allocation_ratio = 3.0;
  c.queries = 20'000;
  c.warmup = 500;
  c.seed = 3;
  const GGkResult r = simulate_ggk(c);
  EXPECT_GT(r.latency_injections, 0u);
  EXPECT_EQ(r.negative_sojourns, 0u);
  EXPECT_GE(r.response_times.min(), 0.0);
}

}  // namespace
}  // namespace stac::queueing
