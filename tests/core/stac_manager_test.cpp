#include "core/stac_manager.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "common/check.hpp"

namespace stac::core {
namespace {

using profiler::RuntimeCondition;

StacOptions tiny_options() {
  StacOptions opts;
  opts.profile_budget = 6;
  opts.profiler.target_completions = 250;
  opts.profiler.warmup_completions = 30;
  opts.profiler.max_windows = 1;
  opts.profiler.accesses_per_sample = 600;
  opts.model.deep_forest.mgs.window_sizes = {5};
  opts.model.deep_forest.mgs.estimators = 6;
  opts.model.deep_forest.cascade.levels = 1;
  opts.model.deep_forest.cascade.estimators = 10;
  opts.predictor.sim_queries = 1500;
  opts.explorer.grid = {0.0, 2.0, 6.0};
  return opts;
}

RuntimeCondition cond() {
  RuntimeCondition c;
  c.primary = wl::Benchmark::kKnn;
  c.collocated = wl::Benchmark::kBfs;
  c.util_primary = 0.8;
  c.util_collocated = 0.8;
  c.timeout_primary = 1.0;
  c.timeout_collocated = 1.0;
  c.seed = 12;
  return c;
}

TEST(StacManager, UsableBeforeCalibrationOnlyForEvaluate) {
  StacManager mgr(tiny_options());
  EXPECT_FALSE(mgr.calibrated());
  EXPECT_THROW((void)mgr.predict(cond()), ContractViolation);
  EXPECT_THROW((void)mgr.recommend(cond()), ContractViolation);
  // Ground-truth evaluation needs no model.
  const auto r = mgr.evaluate(cond(), 6.0, 6.0, 250);
  EXPECT_EQ(r.per_workload.size(), 2u);
}

TEST(StacManager, CalibrateThenFullApi) {
  StacManager mgr(tiny_options());
  mgr.calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  EXPECT_TRUE(mgr.calibrated());
  EXPECT_GE(mgr.library().size(), 6u);

  const auto pred = mgr.predict(cond());
  EXPECT_GT(pred.mean_rt, 0.0);
  EXPECT_GT(pred.ea, 0.0);

  const auto rec = mgr.recommend(cond());
  const auto& grid = tiny_options().explorer.grid;
  EXPECT_NE(std::find(grid.begin(), grid.end(),
                      rec.selection.timeout_primary),
            grid.end());
}

TEST(StacManager, RepeatedMemoizedPredictIsBitIdentical) {
  StacOptions opts = tiny_options();
  opts.predictor.memoize = true;
  StacManager mgr(opts);
  mgr.calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  const RtPrediction first = mgr.predict(cond());
  const RtPrediction again = mgr.predict(cond());  // every simulation a hit
  for (const auto& [a, b] :
       {std::pair{first.mean_rt, again.mean_rt},
        std::pair{first.p95_rt, again.p95_rt},
        std::pair{first.ea, again.ea},
        std::pair{first.mean_queue_delay, again.mean_queue_delay},
        std::pair{first.boosted_fraction, again.boosted_fraction},
        std::pair{first.norm_mean_rt, again.norm_mean_rt},
        std::pair{first.norm_p95_rt, again.norm_p95_rt}})
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
  EXPECT_EQ(first.rung, again.rung);
}

TEST(StacManager, CalibratesAndPredictsUnderModeledTimeEa) {
  // The modeled-time EA labels feed the same Stage-2/Stage-3 pipeline; the
  // full calibrate -> predict -> recommend path must work in either mode.
  StacOptions opts = tiny_options();
  opts.profiler.ea_mode = profiler::EaMode::kModeledTime;
  StacManager mgr(opts);
  mgr.calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  EXPECT_TRUE(mgr.calibrated());
  const auto pred = mgr.predict(cond());
  EXPECT_GT(pred.mean_rt, 0.0);
  EXPECT_GT(pred.ea, 0.0);
  EXPECT_LE(pred.ea, 1.0);
  const auto rec = mgr.recommend(cond());
  const auto& grid = opts.explorer.grid;
  EXPECT_NE(std::find(grid.begin(), grid.end(),
                      rec.selection.timeout_primary),
            grid.end());
}

TEST(StacManager, CalibrationAccumulatesPairings) {
  StacManager mgr(tiny_options());
  mgr.calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  const std::size_t first = mgr.library().size();
  mgr.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
  EXPECT_GT(mgr.library().size(), first);
  // Both pairings answer predictions after the second calibration.
  RuntimeCondition c2 = cond();
  c2.primary = wl::Benchmark::kKmeans;
  c2.collocated = wl::Benchmark::kRedis;
  EXPECT_GT(mgr.predict(c2).mean_rt, 0.0);
  EXPECT_GT(mgr.predict(cond()).mean_rt, 0.0);
}

}  // namespace
}  // namespace stac::core
