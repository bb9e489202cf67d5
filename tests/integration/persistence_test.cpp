// Integration: profile persistence across the full pipeline — profile on
// the testbed, save, load in a "new session", train the EA model from the
// loaded library, and verify predictions are identical to training on the
// originals (the paper's offline workflow: profile once, model anywhere).
#include <gtest/gtest.h>

#include <string>

#include "core/rt_predictor.hpp"
#include "profiler/profile_io.hpp"
#include "test_dir.hpp"

namespace stac::core {
namespace {

using profiler::Profile;
using profiler::Profiler;
using profiler::ProfilerConfig;
using profiler::RuntimeCondition;

ProfilerConfig fast_config() {
  ProfilerConfig cfg;
  cfg.target_completions = 300;
  cfg.warmup_completions = 40;
  cfg.max_windows = 2;
  cfg.accesses_per_sample = 800;
  return cfg;
}

TEST(PersistenceIntegration, SaveLoadTrainPredictMatches) {
  Profiler profiler(fast_config());
  Rng rng(71);
  std::vector<RuntimeCondition> conditions;
  for (int i = 0; i < 8; ++i)
    conditions.push_back(random_condition(wl::Benchmark::kKmeans,
                                          wl::Benchmark::kBfs,
                                          profiler::ConditionRanges{}, rng));
  const std::vector<Profile> original =
      profiler.profile_conditions(conditions);
  ASSERT_GE(original.size(), 6u);

  const TestDir dir;
  const std::string path = dir.file("profiles.txt");
  save_profiles(path, original);
  const std::vector<Profile> loaded = profiler::load_profiles(path);
  ASSERT_EQ(loaded.size(), original.size());

  EaModelConfig cfg;
  cfg.deep_forest.mgs.window_sizes = {5};
  cfg.deep_forest.mgs.estimators = 8;
  cfg.deep_forest.cascade.levels = 2;
  cfg.deep_forest.cascade.estimators = 15;

  EaModel from_original(cfg);
  from_original.fit(original);
  EaModel from_loaded(cfg);
  from_loaded.fit(loaded);

  // Same training data (bit-exact round trip) + same seeds => identical
  // forests => identical predictions.
  for (const auto& p : original) {
    EXPECT_DOUBLE_EQ(from_original.predict(from_original.make_sample(p)),
                     from_loaded.predict(from_loaded.make_sample(p)));
  }
}

TEST(PersistenceIntegration, LoadedProfilesServeAsLibrary) {
  Profiler profiler(fast_config());
  Rng rng(73);
  std::vector<RuntimeCondition> conditions;
  for (int i = 0; i < 6; ++i)
    conditions.push_back(random_condition(wl::Benchmark::kKnn,
                                          wl::Benchmark::kRedis,
                                          profiler::ConditionRanges{}, rng));
  auto profiles = profiler.profile_conditions(conditions);
  ASSERT_FALSE(profiles.empty());

  const TestDir dir;
  const std::string path = dir.file("profiles.txt");
  save_profiles(path, profiles);
  ProfileLibrary library;
  library.add_all(profiler::load_profiles(path));

  EaModelConfig cfg;
  cfg.backend = EaBackend::kSimpleForest;
  cfg.forest.estimators = 20;
  EaModel model(cfg);
  model.fit(library.profiles());

  RtPredictor predictor(profiler, &model, &library, RtPredictorConfig{});
  const RuntimeCondition q = profiles.front().condition;
  const RtPrediction pred = predictor.predict(q);
  EXPECT_GT(pred.mean_rt, 0.0);
  EXPECT_GT(pred.ea, 0.0);
  EXPECT_LE(pred.ea, 1.0);
}

}  // namespace
}  // namespace stac::core
