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

TEST(RtPredictor, PredictBatchBitIdenticalToSerialPredicts) {
  // The lockstep feedback loop only changes WHEN simulations run; every
  // per-condition config sequence — and so every output field — must equal
  // the serial path's bit for bit.  Conditions deliberately mix timeout
  // grid entries (shared streams in the batch engine) with off-grid loads,
  // and run both with and without the memo cache so the identity holds on
  // the uncached batch path too.
  Profiler profiler(fast_config());
  for (const bool memoize : {true, false}) {
    RtPredictorConfig cfg;
    cfg.analytic_ea = true;
    cfg.sim_queries = 1500;
    cfg.memoize = memoize;
    RtPredictor pred(profiler, nullptr, nullptr, cfg);

    std::vector<RuntimeCondition> conds;
    for (const double timeout : {0.0, 0.5, 2.0, 6.0})
      conds.push_back(condition(0.8, timeout));
    conds.push_back(condition(0.45, 1.0));

    // Serial first on a FRESH predictor so its memo state cannot leak into
    // the batch run's accounting (values would match anyway — the cache
    // returns exactly what a fresh simulation would).
    RtPredictor serial_pred(profiler, nullptr, nullptr, cfg);
    std::vector<RtPrediction> serial;
    for (const RuntimeCondition& c : conds)
      serial.push_back(serial_pred.predict(c));

    const std::vector<RtPrediction> batch = pred.predict_batch(conds);
    ASSERT_EQ(batch.size(), conds.size());
    for (std::size_t i = 0; i < conds.size(); ++i) {
      SCOPED_TRACE("condition " + std::to_string(i) +
                   (memoize ? " (memoized)" : " (uncached)"));
      EXPECT_EQ(batch[i].mean_rt, serial[i].mean_rt);
      EXPECT_EQ(batch[i].p95_rt, serial[i].p95_rt);
      EXPECT_EQ(batch[i].ea, serial[i].ea);
      EXPECT_EQ(batch[i].mean_queue_delay, serial[i].mean_queue_delay);
      EXPECT_EQ(batch[i].boosted_fraction, serial[i].boosted_fraction);
      EXPECT_EQ(batch[i].norm_mean_rt, serial[i].norm_mean_rt);
      EXPECT_EQ(batch[i].norm_p95_rt, serial[i].norm_p95_rt);
      EXPECT_EQ(batch[i].rung, serial[i].rung);
    }
  }
}

TEST(RtPredictor, OnePredictionSimulatesOnlyWhatItReads) {
  // Every iteration reads its primary run; the collocated run feeds the
  // next iteration's dynamics, so the last iteration skips it: 2k - 1
  // simulations for k feedback iterations, on both entry points.
  Profiler profiler(fast_config());
  for (const std::size_t iters : {1u, 2u, 3u}) {
    RtPredictorConfig cfg;
    cfg.analytic_ea = true;
    cfg.sim_queries = 1000;
    cfg.feedback_iterations = iters;
    RtPredictor serial(profiler, nullptr, nullptr, cfg);
    (void)serial.predict(condition(0.7, 1.0));
    const auto st = serial.cache_stats();
    EXPECT_EQ(st.hits + st.misses, 2 * iters - 1) << iters;

    RtPredictor batch(profiler, nullptr, nullptr, cfg);
    (void)batch.predict_batch({condition(0.7, 1.0), condition(0.5, 2.0)});
    const auto sb = batch.cache_stats();
    EXPECT_EQ(sb.hits + sb.misses, 2 * (2 * iters - 1)) << iters;
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

TEST(RtPredictor, PredictBatchEmptyAndSingleton) {
  Profiler profiler(fast_config());
  RtPredictorConfig cfg;
  cfg.analytic_ea = true;
  cfg.sim_queries = 1500;
  RtPredictor pred(profiler, nullptr, nullptr, cfg);
  EXPECT_TRUE(pred.predict_batch({}).empty());
  const auto one = pred.predict_batch({condition(0.7, 1.0)});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].mean_rt, pred.predict(condition(0.7, 1.0)).mean_rt);
}

}  // namespace
}  // namespace stac::core
