#include "ml/cascade.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "ml/test_util.hpp"

namespace stac::ml {
namespace {

Dataset nonlinear_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 3);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(), b = rng.uniform(), c = rng.uniform();
    x.append_row(std::vector<double>{a, b, c});
    y.push_back(std::abs(a - b) + 0.3 * c + rng.normal(0.0, 0.02));
  }
  return Dataset(std::move(x), std::move(y));
}

CascadeConfig small_config() {
  CascadeConfig cfg;
  cfg.levels = 2;
  cfg.forests_per_level = 4;
  cfg.estimators = 20;
  cfg.final_forests = 2;
  cfg.seed = 3;
  return cfg;
}

TEST(CascadeForest, TrainsAndPredictsReasonably) {
  CascadeForest cf(small_config());
  const Dataset train = nonlinear_dataset(400, 1);
  cf.fit(train);
  EXPECT_TRUE(cf.trained());
  EXPECT_EQ(cf.level_count(), 2u);
  const Dataset test = nonlinear_dataset(150, 2);
  double mae = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i)
    mae += std::abs(cf.predict(test.row(i)) - test.target(i));
  EXPECT_LT(mae / static_cast<double>(test.size()), 0.08);
}

TEST(CascadeForest, ConceptVectorHasLevelsTimesForests) {
  CascadeForest cf(small_config());
  const Dataset train = nonlinear_dataset(150, 3);
  cf.fit(train);
  const auto concepts = cf.concepts(train.row(0));
  EXPECT_EQ(concepts.size(), 2u * 4u);
}

TEST(CascadeForest, PerLevelExtraFeaturesAccepted) {
  CascadeForest cf(small_config());
  const Dataset train = nonlinear_dataset(200, 4);
  Matrix extra0(200, 2), extra1(200, 1);
  Rng rng(5);
  for (std::size_t r = 0; r < 200; ++r) {
    extra0(r, 0) = rng.uniform();
    extra0(r, 1) = rng.uniform();
    extra1(r, 0) = rng.uniform();
  }
  cf.fit(train, {extra0, extra1});
  // Inference must supply matching extra blocks.
  const std::vector<std::vector<double>> extras{{0.5, 0.5}, {0.5}};
  EXPECT_NO_THROW((void)cf.predict(train.row(0), extras));
  EXPECT_THROW((void)cf.predict(train.row(0), {}), ContractViolation);
}

TEST(CascadeForest, ExtraRowMismatchThrows) {
  CascadeForest cf(small_config());
  const Dataset train = nonlinear_dataset(100, 6);
  Matrix extra(50, 2);
  EXPECT_THROW((void)cf.fit(train, {extra}), ContractViolation);
}

TEST(CascadeForest, PredictBeforeFitThrows) {
  CascadeForest cf;
  EXPECT_THROW((void)cf.predict(std::vector<double>{1.0, 2.0, 3.0}),
               ContractViolation);
}

TEST(CascadeForest, DeterministicForSeed) {
  const Dataset train = nonlinear_dataset(200, 7);
  CascadeForest a(small_config()), b(small_config());
  a.fit(train);
  b.fit(train);
  const std::vector<double> x{0.2, 0.7, 0.5};
  EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
}

TEST(CascadeForest, ParallelFitBitIdenticalToSerial) {
  // Forest seeds are drawn serially before the fan-out and every forest
  // trains into its own slot, so thread scheduling must not change a single
  // bit of the model.
  const Dataset train = nonlinear_dataset(250, 7);
  CascadeConfig cfg = small_config();
  cfg.parallel = false;
  CascadeForest serial(cfg);
  serial.fit(train);
  cfg.parallel = true;
  CascadeForest parallel(cfg);
  parallel.fit(train);

  const Dataset probe = nonlinear_dataset(100, 8);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(serial.predict(probe.row(i)), parallel.predict(probe.row(i)));
    EXPECT_EQ(serial.concepts(probe.row(i)), parallel.concepts(probe.row(i)));
  }
}

TEST(CascadeForest, ConfigValidation) {
  CascadeConfig bad = small_config();
  bad.levels = 0;
  EXPECT_THROW(CascadeForest{bad}, ContractViolation);
}

// ---- PR-9: warm-start cascade refit ---------------------------------------

TEST(CascadeForest, WarmRefitParityWithColdFit) {
  const Dataset grown = nonlinear_dataset(420, 21);
  std::vector<std::size_t> head(350);
  for (std::size_t i = 0; i < head.size(); ++i) head[i] = i;
  CascadeForest warm(small_config());
  warm.fit(grown.subset(head));
  EXPECT_EQ(warm.trained_rows(), 350u);
  warm.refit_incremental(grown);
  EXPECT_EQ(warm.trained_rows(), 420u);

  CascadeForest cold(small_config());
  cold.fit(grown);
  const Dataset test = nonlinear_dataset(150, 22);
  auto mae = [&](const CascadeForest& cf) {
    double m = 0.0;
    for (std::size_t i = 0; i < test.size(); ++i)
      m += std::abs(cf.predict(test.row(i)) - test.target(i));
    return m / static_cast<double>(test.size());
  };
  // The warm-start contract: old rows keep their frozen training-time
  // concepts and only a round-robin tree subset retrains, so the result is
  // an approximation — but one that must track a full refit closely.
  EXPECT_LE(mae(warm), mae(cold) + 0.03);
}

TEST(CascadeForest, WarmRefitIsDeterministic) {
  auto run = [] {
    const Dataset d = nonlinear_dataset(240, 25);
    CascadeForest cf(small_config());
    cf.fit(d);
    cf.refit_incremental(concat(d, nonlinear_dataset(60, 26)));
    return cf;
  };
  const CascadeForest a = run();
  const CascadeForest b = run();
  const Dataset probe = nonlinear_dataset(80, 27);
  for (std::size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(a.predict(probe.row(i)), b.predict(probe.row(i)));
}

TEST(CascadeForest, OneRankTablePerTrainingMatrix) {
  // Each level and the closing bank train on their own matrix; all the
  // random forests of one matrix share its single rank table.
  const CascadeConfig cfg = small_config();
  CascadeForest cf(cfg);
  const Dataset d = nonlinear_dataset(150, 29);
  EXPECT_EQ(rank_builds([&] { cf.fit(d); }), cfg.levels + 1);
  EXPECT_EQ(rank_builds([&] {
              cf.refit_incremental(concat(d, nonlinear_dataset(20, 30)));
            }),
            cfg.levels + 1);
}

TEST(CascadeForest, RefitContractValidation) {
  CascadeForest cf(small_config());
  Dataset d = nonlinear_dataset(120, 28);
  EXPECT_THROW(cf.refit_incremental(d), ContractViolation);
  cf.fit(d);
  const Dataset smaller = d.subset({0, 1, 2});
  EXPECT_THROW(cf.refit_incremental(smaller), ContractViolation);
}

}  // namespace
}  // namespace stac::ml
