// End-to-end chaos acceptance: with COS writes failing 10% of the time,
// 5% of profiler samples dropped and a corrupt profile record on disk, the
// full StacManager pipeline (calibrate -> predict -> recommend -> evaluate)
// must complete, report the degradation rung it answered from, leak no
// boost grants, and reproduce the identical fault schedule and results for
// the same plan seed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/fault_injection.hpp"
#include "core/stac_manager.hpp"
#include "profiler/profile_io.hpp"
#include "test_dir.hpp"

namespace stac::core {
namespace {

using profiler::RuntimeCondition;

StacOptions fast_options() {
  StacOptions opts;
  opts.profile_budget = 10;
  opts.profiler.target_completions = 400;
  opts.profiler.warmup_completions = 50;
  opts.profiler.max_windows = 2;
  opts.profiler.accesses_per_sample = 800;
  opts.model.backend = EaBackend::kSimpleForest;
  opts.model.forest.estimators = 16;
  opts.predictor.sim_queries = 2000;
  opts.sampler.seed = 33;
  return opts;
}

RuntimeCondition make_condition() {
  RuntimeCondition c;
  c.primary = wl::Benchmark::kKmeans;
  c.collocated = wl::Benchmark::kRedis;
  c.util_primary = 0.7;
  c.util_collocated = 0.6;
  c.timeout_primary = 1.5;
  c.timeout_collocated = 2.0;
  c.seed = 5;
  return c;
}

/// Flip the checksum of the last record in a saved profile file.
void corrupt_last_record(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t pos = text.rfind("checksum ");
  ASSERT_NE(pos, std::string::npos);
  const std::string bogus = text.compare(pos + 9, 16, "0123456789abcdef")
                                ? "0123456789abcdef"
                                : "fedcba9876543210";
  text.replace(pos + 9, 16, bogus);
  std::ofstream out(path);
  out << text;
}

struct ScenarioResult {
  double mean_rt = 0.0;
  double ea = 0.0;
  DegradationRung rung = DegradationRung::kPrimaryModel;
  double rec_timeout_primary = 0.0;
  std::size_t quarantined = 0;
  std::uint64_t cat_apply_injected = 0;
  std::uint64_t samples_injected = 0;
};

ScenarioResult run_scenario(std::uint64_t plan_seed) {
  FaultPlan plan;
  plan.seed = plan_seed;
  plan.add({.point = "cat.apply",
            .action = FaultAction::kThrow,
            .probability = 0.10});
  plan.add({.point = "profiler.sample",
            .action = FaultAction::kDrop,
            .probability = 0.05});
  FaultScope scope(plan);

  StacManager mgr(fast_options());
  mgr.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
  EXPECT_TRUE(mgr.calibrated());

  // One corrupt profile record on disk: save the library, damage the last
  // record's checksum, merge the file back in.
  const TestDir dir;
  const std::string path = dir.file("profiles.txt");
  profiler::save_profiles(path, mgr.library().profiles());
  corrupt_last_record(path);
  const std::size_t before = mgr.library().size();
  const std::size_t added = mgr.load_profiles(path);
  EXPECT_EQ(added, before - 1);  // all but the damaged record survive
  EXPECT_EQ(mgr.library().quarantine_log().size(), 1u);

  const RuntimeCondition c = make_condition();
  const RtPrediction pred = mgr.predict(c);
  EXPECT_GT(pred.mean_rt, 0.0);
  const PolicyExploration rec = mgr.recommend(c);

  // Ground-truth run under the same chaos; teardown must show zero leaked
  // boost grants (whatever refcount remains covers in-flight queries).
  const auto eval = mgr.evaluate(c, rec.selection.timeout_primary,
                                 rec.selection.timeout_collocated, 800);
  for (const auto& w : eval.per_workload)
    EXPECT_EQ(w.final_boost_refs, w.final_inflight_boosted);

  ScenarioResult r;
  r.mean_rt = pred.mean_rt;
  r.ea = pred.ea;
  r.rung = pred.rung;
  r.rec_timeout_primary = rec.selection.timeout_primary;
  r.quarantined = mgr.library().quarantine_log().size();
  r.cat_apply_injected =
      FaultInjector::global().stats("cat.apply").injected;
  r.samples_injected =
      FaultInjector::global().stats("profiler.sample").injected;
  return r;
}

TEST(FaultInjectionE2E, PipelineSurvivesChaosAndReproduces) {
  const ScenarioResult a = run_scenario(2026);
  // The chaos was real.
  EXPECT_GT(a.cat_apply_injected, 0u);
  EXPECT_GT(a.samples_injected, 0u);
  EXPECT_EQ(a.quarantined, 1u);
  // The pipeline still answered, reporting the rung it answered from (the
  // primary model trains fine here — faults hit the control plane, not the
  // trainer).
  EXPECT_EQ(a.rung, DegradationRung::kPrimaryModel);
  EXPECT_GT(a.ea, 0.0);
  EXPECT_LE(a.ea, 1.0);

  // Same plan seed -> identical fault schedule -> identical results.
  const ScenarioResult b = run_scenario(2026);
  EXPECT_EQ(b.cat_apply_injected, a.cat_apply_injected);
  EXPECT_EQ(b.samples_injected, a.samples_injected);
  EXPECT_DOUBLE_EQ(b.mean_rt, a.mean_rt);
  EXPECT_DOUBLE_EQ(b.ea, a.ea);
  EXPECT_EQ(b.rung, a.rung);
  EXPECT_DOUBLE_EQ(b.rec_timeout_primary, a.rec_timeout_primary);

  // A different seed reshuffles the schedule.
  const ScenarioResult c = run_scenario(2027);
  EXPECT_FALSE(c.cat_apply_injected == a.cat_apply_injected &&
               c.samples_injected == a.samples_injected &&
               c.mean_rt == a.mean_rt);
}

TEST(FaultInjectionE2E, PredictorDropsToNearestNeighborWhenModelsFail) {
  StacManager mgr(fast_options());
  mgr.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
  ASSERT_TRUE(mgr.model().trained());

  // Every model-server call fails: both the primary and the linear fallback
  // throw, so the ladder answers from the profile library.
  FaultPlan plan;
  plan.add({.point = "model.predict",
            .action = FaultAction::kThrow,
            .probability = 1.0});
  FaultScope scope(plan);
  const RtPrediction pred = mgr.predict(make_condition());
  EXPECT_EQ(pred.rung, DegradationRung::kNearestNeighbor);
  EXPECT_GT(pred.mean_rt, 0.0);
  EXPECT_GT(pred.ea, 0.0);
  EXPECT_LE(pred.ea, 1.0);

  // With the chaos gone the same manager is back on the primary model.
  scope.disarm();
  EXPECT_EQ(mgr.predict(make_condition()).rung,
            DegradationRung::kPrimaryModel);
}

TEST(FaultInjectionE2E, CalibrateSurvivesTrainerFailure) {
  // The trainer itself dies: calibrate() must still leave a usable manager
  // whose predictions start below rung 0.
  FaultPlan plan;
  plan.add({.point = "model.fit",
            .action = FaultAction::kThrow,
            .probability = 1.0});
  FaultScope scope(plan);
  StacManager mgr(fast_options());
  mgr.calibrate(wl::Benchmark::kKmeans, wl::Benchmark::kRedis);
  EXPECT_TRUE(mgr.calibrated());
  EXPECT_TRUE(mgr.primary_model_degraded());
  scope.disarm();

  const RtPrediction pred = mgr.predict(make_condition());
  EXPECT_EQ(pred.rung, DegradationRung::kNearestNeighbor);
  EXPECT_GT(pred.mean_rt, 0.0);
}

}  // namespace
}  // namespace stac::core
