#include "ml/random_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "ml/test_util.hpp"

namespace stac::ml {
namespace {

/// Noisy nonlinear target: y = sin(4a) + 0.5b + noise.
Dataset wavy_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 2);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    x.append_row(std::vector<double>{a, b});
    y.push_back(std::sin(4.0 * a) + 0.5 * b + rng.normal(0.0, 0.05));
  }
  return Dataset(std::move(x), std::move(y));
}

double test_mae(const RandomForest& rf, const Dataset& test) {
  double mae = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i)
    mae += std::abs(rf.predict(test.row(i)) - test.target(i));
  return mae / static_cast<double>(test.size());
}

TEST(RandomForest, FitsNonlinearFunction) {
  RandomForest rf(ForestConfig{.estimators = 50, .seed = 1});
  const Dataset train = wavy_dataset(600, 1);
  const Dataset test = wavy_dataset(200, 2);
  rf.fit(train);
  EXPECT_LT(test_mae(rf, test), 0.12);
}

TEST(RandomForest, EnsembleBeatsSingleTreeOnNoise) {
  const Dataset train = wavy_dataset(400, 3);
  const Dataset test = wavy_dataset(200, 4);
  RandomForest rf(ForestConfig{.estimators = 60, .seed = 5});
  rf.fit(train);
  RandomForest single(ForestConfig{.estimators = 1, .seed = 5});
  single.fit(train);
  EXPECT_LT(test_mae(rf, test), test_mae(single, test));
}

TEST(RandomForest, OobPredictionsCoverTrainingRows) {
  RandomForest rf(ForestConfig{.estimators = 30, .seed = 7});
  const Dataset train = wavy_dataset(200, 5);
  rf.fit(train);
  const auto& oob = rf.oob_predictions();
  ASSERT_EQ(oob.size(), 200u);
  // OOB error should be sane (not catastrophically off).
  double mae = 0.0;
  for (std::size_t i = 0; i < oob.size(); ++i)
    mae += std::abs(oob[i] - train.target(i));
  EXPECT_LT(mae / 200.0, 0.2);
}

TEST(RandomForest, DeterministicForSeedEvenParallel) {
  const Dataset train = wavy_dataset(300, 6);
  RandomForest a(ForestConfig{.estimators = 20, .seed = 11, .parallel = true});
  RandomForest b(ForestConfig{.estimators = 20, .seed = 11, .parallel = false});
  a.fit(train);
  b.fit(train);
  for (double v = 0.05; v < 1.0; v += 0.1) {
    const std::vector<double> x{v, 0.5};
    EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
  }
}

TEST(RandomForest, CompletelyRandomModeTrains) {
  RandomForest rf(ForestConfig{
      .estimators = 40, .split_mode = SplitMode::kCompletelyRandom,
      .seed = 13});
  const Dataset train = wavy_dataset(400, 7);
  const Dataset test = wavy_dataset(100, 8);
  rf.fit(train);
  EXPECT_LT(test_mae(rf, test), 0.25);
}

TEST(RandomForest, FeatureImportanceAggregates) {
  RandomForest rf(ForestConfig{.estimators = 20, .seed = 15});
  rf.fit(wavy_dataset(300, 9));
  const auto imp = rf.feature_importance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], imp[1]);  // sin(4a) dominates 0.5b
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest rf;
  EXPECT_THROW((void)rf.predict(std::vector<double>{0.5, 0.5}), ContractViolation);
  EXPECT_THROW((void)rf.oob_predictions(), ContractViolation);
}

TEST(RandomForest, BootstrapFractionValidated) {
  EXPECT_THROW(RandomForest(ForestConfig{.bootstrap_fraction = 0.0}),
               ContractViolation);
  EXPECT_THROW(RandomForest(ForestConfig{.estimators = 0}),
               ContractViolation);
}

// ---- PR-9: flattened SoA inference + warm-start refit ---------------------

TEST(RandomForest, FlattenedPredictBitIdenticalToPointerWalk) {
  for (const std::uint64_t seed : {1ull, 9ull, 23ull}) {
    for (const SplitMode mode :
         {SplitMode::kSqrtFeatures, SplitMode::kCompletelyRandom}) {
      const Dataset train = wavy_dataset(220, seed);
      ForestConfig cfg{.estimators = 18, .split_mode = mode, .seed = seed};
      ForestConfig ptr_cfg = cfg;
      ptr_cfg.flatten = false;
      RandomForest flat(cfg), pointer(ptr_cfg);
      flat.fit(train);
      pointer.fit(train);
      // OOB estimates (the cascade's concept source) and fresh predictions
      // must agree bit for bit — the flat walk uses identical comparisons
      // and identical tree-order accumulation.
      EXPECT_EQ(flat.oob_predictions(), pointer.oob_predictions());
      const Dataset test = wavy_dataset(90, seed + 1000);
      for (std::size_t i = 0; i < test.size(); ++i) {
        const double a = flat.predict(test.row(i));
        const double b = pointer.predict(test.row(i));
        EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
      }
      // The batch (level-major) walk is the same function.
      const auto batch = flat.predict(test.features());
      const auto scalar = pointer.predict(test.features());
      EXPECT_EQ(batch, scalar);
    }
  }
}

TEST(RandomForest, FlattenedIdentityHoldsAcrossWarmRefit) {
  const Dataset data = wavy_dataset(200, 31);
  ForestConfig cfg{.estimators = 16, .seed = 31};
  ForestConfig ptr_cfg = cfg;
  ptr_cfg.flatten = false;
  RandomForest flat(cfg), pointer(ptr_cfg);
  flat.fit(data);
  pointer.fit(data);
  const Dataset grown = concat(data, wavy_dataset(60, 32));
  flat.refit_incremental(grown);
  pointer.refit_incremental(grown);
  const Dataset test = wavy_dataset(80, 33);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double a = flat.predict(test.row(i));
    const double b = pointer.predict(test.row(i));
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
  }
  EXPECT_EQ(flat.oob_predictions(), pointer.oob_predictions());
}

TEST(RandomForest, WarmRefitParityWithColdFit) {
  const Dataset grown = wavy_dataset(500, 41);
  std::vector<std::size_t> head(400);
  for (std::size_t i = 0; i < head.size(); ++i) head[i] = i;
  RandomForest warm(ForestConfig{.estimators = 32, .seed = 42});
  warm.fit(grown.subset(head));
  // Two refit rounds: the round-robin window advances, so different tree
  // subsets retrain each call.
  warm.refit_incremental(grown);
  warm.refit_incremental(grown);
  EXPECT_EQ(warm.trained_rows(), 500u);
  EXPECT_EQ(warm.refit_rounds(), 2u);
  RandomForest cold(ForestConfig{.estimators = 32, .seed = 42});
  cold.fit(grown);
  const Dataset test = wavy_dataset(200, 43);
  // The accuracy-parity contract: warm-start is an approximation, but it
  // must track a full refit within a small absolute margin.
  EXPECT_LE(test_mae(warm, test), test_mae(cold, test) + 0.03);
}

TEST(RandomForest, WarmRefitIsDeterministic) {
  auto run = [] {
    const Dataset d = wavy_dataset(240, 51);
    RandomForest rf(ForestConfig{.estimators = 24, .seed = 52});
    rf.fit(d);
    const Dataset grown = concat(d, wavy_dataset(50, 53));
    rf.refit_incremental(grown);
    rf.refit_incremental(grown);
    return rf;
  };
  const RandomForest a = run();
  const RandomForest b = run();
  const Dataset test = wavy_dataset(60, 54);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double pa = a.predict(test.row(i));
    const double pb = b.predict(test.row(i));
    EXPECT_EQ(std::memcmp(&pa, &pb, sizeof(double)), 0);
  }
}

TEST(RandomForest, FitBuildsOneRankTablePerDataset) {
  const Dataset d = wavy_dataset(300, 71);
  // Sixteen trees fitted in parallel share the dataset's one rank table,
  // and a warm refit on the same dataset reuses it.
  RandomForest rf(ForestConfig{.estimators = 16, .seed = 71});
  EXPECT_EQ(rank_builds([&] { rf.fit(d); }), 1u);
  EXPECT_EQ(rank_builds([&] { rf.refit_incremental(d); }), 0u);
  // Completely-random trees never sort.
  RandomForest cr(ForestConfig{.estimators = 8,
                               .split_mode = SplitMode::kCompletelyRandom,
                               .seed = 72});
  EXPECT_EQ(rank_builds([&] { cr.fit(wavy_dataset(100, 72)); }), 0u);
}

TEST(RandomForest, RefitContractValidation) {
  RandomForest rf(ForestConfig{.estimators = 8, .seed = 61});
  Dataset d = wavy_dataset(100, 61);
  // Warm refit requires a prior fit.
  EXPECT_THROW(rf.refit_incremental(d), ContractViolation);
  rf.fit(d);
  // ... and a dataset at least as large as the one last fitted.
  const Dataset smaller = d.subset({0, 1, 2, 3});
  EXPECT_THROW(rf.refit_incremental(smaller), ContractViolation);
  // Same-size refit is legal (pure tree refresh, no growth).
  rf.refit_incremental(d);
  EXPECT_EQ(rf.refit_rounds(), 1u);
}

}  // namespace
}  // namespace stac::ml
