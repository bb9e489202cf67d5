#include "core/rt_predictor.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace stac::core {
namespace {

using profiler::Profiler;
using profiler::ProfilerConfig;
using profiler::RuntimeCondition;

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

TEST(RtPredictor, AnalyticModeNeedsNoModel) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  const RtPrediction p = pred.predict(condition(0.7, 1.0));
  EXPECT_GT(p.mean_rt, 0.0);
  EXPECT_GE(p.p95_rt, p.mean_rt);
  EXPECT_GT(p.ea, 0.0);
  EXPECT_LE(p.ea, 1.0);
  EXPECT_GT(p.norm_mean_rt, 0.5);  // residual speedup can push below 1 base
}

TEST(RtPredictor, LearnedModeRequiresModelAndLibrary) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;  // analytic_ea = false
  EXPECT_THROW(RtPredictor(profiler, nullptr, nullptr, cfg),
               ContractViolation);
}

TEST(RtPredictor, HigherUtilizationPredictsHigherRt) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  EXPECT_LT(pred.predict(condition(0.4, 6.0)).mean_rt,
            pred.predict(condition(0.9, 6.0)).mean_rt);
}

TEST(RtPredictor, BoostingPredictsImprovement) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  const RtPrediction never = pred.predict(condition(0.85, 6.0));
  const RtPrediction boost = pred.predict(condition(0.85, 0.5));
  EXPECT_LT(boost.mean_rt, never.mean_rt);
  EXPECT_GT(boost.boosted_fraction, 0.0);
  EXPECT_DOUBLE_EQ(never.boosted_fraction, 0.0);
}

TEST(RtPredictor, NormalizedOutputsScaleFree) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  const RtPrediction p = pred.predict(condition(0.6, 2.0));
  const auto scales =
      profiler.pair_scales(wl::Benchmark::kKmeans, wl::Benchmark::kBfs);
  EXPECT_NEAR(p.norm_mean_rt, p.mean_rt / scales.scaled_base_primary, 1e-12);
}

TEST(RtPredictor, FeedbackIterationsConverge) {
  Profiler profiler(fast_config());
  RtPredictorConfig one;
  one.analytic_ea = true;
  one.feedback_iterations = 1;
  RtPredictorConfig three = one;
  three.feedback_iterations = 3;
  RtPredictor p1(profiler, nullptr, nullptr, one);
  RtPredictor p3(profiler, nullptr, nullptr, three);
  // With analytic EA the feedback loop only re-runs the simulator with a
  // fresh seed; results must be close (bounded stochastic drift).
  const double a = p1.predict(condition(0.7, 1.0)).mean_rt;
  const double b = p3.predict(condition(0.7, 1.0)).mean_rt;
  EXPECT_NEAR(a, b, 0.2 * a);
}

TEST(RtPredictor, OnePredictionSimulatesOnlyWhatItReads) {
  // Every iteration reads its primary run; the collocated run feeds the
  // next iteration's dynamics, so the last iteration skips it: 2k - 1
  // simulations for k feedback iterations.
  Profiler profiler(fast_config());
  for (const std::size_t iters : {1u, 2u, 3u}) {
    RtPredictorConfig cfg;
    cfg.analytic_ea = true;
    cfg.sim_queries = 1000;
    cfg.feedback_iterations = iters;
    RtPredictor pred(profiler, nullptr, nullptr, cfg);
    (void)pred.predict(condition(0.7, 1.0));
    const auto st = pred.cache_stats();
    EXPECT_EQ(st.hits + st.misses, 2 * iters - 1) << iters;
  }
}

TEST(RtPredictor, ProbeRungMatchesPredictRung) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  const RuntimeCondition c = condition(0.7, 1.0);
  EXPECT_EQ(pred.probe_rung(c), pred.predict(c).rung);
}

}  // namespace
}  // namespace stac::core
