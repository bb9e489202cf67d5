// Golden digests of fitted trees and forests on tie-heavy data.
//
// The split search's sort order is an invariant of every fitted model:
// samples of one feature are ordered by (value, bootstrap slot), values that
// compare equal (including -0.0 and +0.0) never get a cut between them, and
// node moments accumulate in slot order.  The digests below were recorded
// from the comparison-sort implementation on exactly these inputs; any
// change to how the trainer orders samples must leave every node array —
// features, thresholds, values, gains and child links, bit for bit —
// unchanged.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "test_digest.hpp"

namespace stac::ml {
namespace {

std::uint64_t tree_digest(const DecisionTree& tree) {
  Digest d;
  d.put(tree.nodes().size());
  for (const auto& nd : tree.nodes()) {
    d.put(nd.feature);
    d.put(nd.threshold);
    d.put(nd.value);
    d.put(nd.gain);
    d.put(nd.left);
    d.put(nd.right);
  }
  return d.h;
}

/// A forest's trees are private; its OOB estimates, training-row
/// predictions and importances are functions of every node array.
std::uint64_t forest_digest(const RandomForest& rf, const Dataset& data) {
  Digest d;
  d.put_doubles(rf.oob_predictions());
  d.put_doubles(rf.predict(data.features()));
  d.put_doubles(rf.feature_importance());
  return d.h;
}

/// Integer event counters, ~60% zeros: most candidate cuts fall between
/// long runs of ties.
Dataset counters_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 6);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(6);
    for (auto& v : row)
      v = rng.uniform() < 0.6 ? 0.0 : std::floor(rng.uniform() * 5.0);
    x.append_row(row);
    y.push_back(row[0] + 2.0 * (row[2] > 0.0 ? row[1] : 0.0) - row[4] +
                rng.normal(0.0, 0.1));
  }
  return Dataset(std::move(x), std::move(y));
}

/// Signed zeros: columns 0 and 3 mix {-1, -0.0, +0.0, 1}; column 1 holds
/// only -0.0 and +0.0 (equal values, different bits: never splittable).
Dataset signed_zero_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 5);
  std::vector<double> y;
  constexpr double kVals[4] = {-1.0, -0.0, 0.0, 1.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double a = kVals[rng.uniform_index(4)];
    const double z = rng.uniform() < 0.5 ? -0.0 : 0.0;
    const double c = rng.uniform();
    const double b = kVals[rng.uniform_index(4)];
    const double e = std::round(rng.uniform() * 4.0);
    x.append_row(std::vector<double>{a, z, c, b, e});
    y.push_back((std::signbit(a) ? 1.0 : 0.0) + a + 0.5 * c - b * e +
                rng.normal(0.0, 0.05));
  }
  return Dataset(std::move(x), std::move(y));
}

/// Two constant columns, one coarse (one decimal), one continuous.
Dataset constant_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 4);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = rng.uniform();
    const double coarse = std::round(rng.uniform() * 10.0) / 10.0;
    x.append_row(std::vector<double>{3.0, 0.0, c, coarse});
    y.push_back(std::sin(3.0 * c) + coarse + rng.normal(0.0, 0.05));
  }
  return Dataset(std::move(x), std::move(y));
}

TreeConfig tree_config(SplitMode mode, std::size_t max_depth = 0,
                       std::size_t min_leaf = 1) {
  TreeConfig tc;
  tc.split_mode = mode;
  tc.max_depth = max_depth;
  tc.min_samples_leaf = min_leaf;
  tc.seed = 77;
  return tc;
}

std::uint64_t fit_tree(const Dataset& data, const TreeConfig& tc,
                       std::span<const std::size_t> rows = {}) {
  DecisionTree tree(tc);
  tree.fit(data, rows);
  return tree_digest(tree);
}

constexpr SplitMode kExhaustive[2] = {SplitMode::kAllFeatures,
                                      SplitMode::kSqrtFeatures};

// Recorded digests: [case][0] = all-features, [case][1] = sqrt-features.
TEST(DecisionTreeGolden, IntegerCountersWithManyZeros) {
  const Dataset d = counters_dataset(240, 3);
  const std::uint64_t want[2] = {0xb8482ab0f7d6d3b6ULL,
                                 0x488122adf1ed9fd3ULL};
  for (int m = 0; m < 2; ++m)
    EXPECT_EQ(fit_tree(d, tree_config(kExhaustive[m])), want[m]) << m;
}

TEST(DecisionTreeGolden, MixedSignedZeros) {
  const Dataset d = signed_zero_dataset(160, 4);
  const std::uint64_t want[2] = {0x01b13df5bdaf9c3bULL,
                                 0x76eeb20edbbe9555ULL};
  for (int m = 0; m < 2; ++m)
    EXPECT_EQ(fit_tree(d, tree_config(kExhaustive[m])), want[m]) << m;
}

TEST(DecisionTreeGolden, ConstantColumns) {
  const Dataset d = constant_dataset(90, 5);
  const std::uint64_t want[2] = {0xd74e207b0d119981ULL,
                                 0x0427824e5574ed1cULL};
  for (int m = 0; m < 2; ++m)
    EXPECT_EQ(fit_tree(d, tree_config(kExhaustive[m])), want[m]) << m;
}

TEST(DecisionTreeGolden, DuplicatedBootstrapSlots) {
  const Dataset d = counters_dataset(150, 6);
  Rng rng(60);
  std::vector<std::size_t> slots(300);
  for (auto& s : slots) s = rng.uniform_index(d.size());
  const std::uint64_t want[2] = {0xa174b77e4e740757ULL,
                                 0x264808768aebdde1ULL};
  for (int m = 0; m < 2; ++m)
    EXPECT_EQ(fit_tree(d, tree_config(kExhaustive[m]), slots), want[m]) << m;
}

TEST(DecisionTreeGolden, SingleSample) {
  const Dataset d = signed_zero_dataset(1, 7);
  const std::uint64_t want[2] = {0xc01a841bdc3d33a3ULL,
                                 0xc01a841bdc3d33a3ULL};
  for (int m = 0; m < 2; ++m) {
    DecisionTree tree(tree_config(kExhaustive[m]));
    tree.fit(d);
    EXPECT_EQ(tree.node_count(), 1u);
    EXPECT_EQ(tree_digest(tree), want[m]) << m;
  }
}

TEST(DecisionTreeGolden, NodesBelowTwiceMinLeaf) {
  // min_samples_leaf = 7: every node of 8..13 samples passes the split
  // gate but cannot place a legal cut.
  const Dataset d = counters_dataset(200, 8);
  const std::uint64_t want[2] = {0x6ffa8f6ceda2e5e6ULL,
                                 0xb07d346cfa7ad8e0ULL};
  for (int m = 0; m < 2; ++m)
    EXPECT_EQ(fit_tree(d, tree_config(kExhaustive[m], 0, 7)), want[m]) << m;
}

TEST(DecisionTreeGolden, DepthCaps) {
  const Dataset d = counters_dataset(200, 9);
  const std::uint64_t want[2][2] = {
      {0xc4b84d6c57ad0638ULL, 0xc4b84d6c57ad0638ULL},
      {0x858a9e8780a59d38ULL, 0x67362a85f702fce8ULL}};
  const std::size_t caps[2] = {1, 3};
  for (int c = 0; c < 2; ++c)
    for (int m = 0; m < 2; ++m)
      EXPECT_EQ(fit_tree(d, tree_config(kExhaustive[m], caps[c])), want[c][m])
          << c << ' ' << m;
}

TEST(DecisionTreeGolden, LargeTieHeavyDataset) {
  // Thousands of rows in a handful of rank buckets: long runs of ties in
  // every feature segment.
  const Dataset counters = counters_dataset(1500, 13);
  const Dataset zeros = signed_zero_dataset(1200, 14);
  const std::uint64_t want[2][2] = {
      {0xb1f05f84cbb1a2e1ULL, 0x138e162b8a6402baULL},
      {0x4cd5ddfd39ba318cULL, 0x22df037915757d6dULL}};
  for (int m = 0; m < 2; ++m) {
    EXPECT_EQ(fit_tree(counters, tree_config(kExhaustive[m], 0, 3)),
              want[0][m])
        << m;
    EXPECT_EQ(fit_tree(zeros, tree_config(kExhaustive[m], 0, 3)), want[1][m])
        << m;
  }
}

std::uint64_t fit_forest(const Dataset& data, SplitMode mode,
                         std::size_t max_depth, std::size_t min_leaf) {
  ForestConfig fc;
  fc.estimators = 12;
  fc.split_mode = mode;
  fc.max_depth = max_depth;
  fc.min_samples_leaf = min_leaf;
  fc.seed = 91;
  RandomForest rf(fc);
  rf.fit(data);
  return forest_digest(rf, data);
}

// Bootstrap bags duplicate slots in every tree; the parallel fit also
// races every tree to the dataset's first column access.
TEST(RandomForestGolden, TieHeavyForests) {
  const Dataset counters = counters_dataset(220, 10);
  const Dataset zeros = signed_zero_dataset(180, 11);
  const Dataset constant = constant_dataset(120, 12);
  EXPECT_EQ(fit_forest(counters, SplitMode::kSqrtFeatures, 0, 1),
            0x0d92be80da0f675cULL);
  EXPECT_EQ(fit_forest(counters, SplitMode::kSqrtFeatures, 4, 3),
            0xb4c72c22a7b17ca1ULL);
  EXPECT_EQ(fit_forest(counters, SplitMode::kCompletelyRandom, 0, 2),
            0xaad7b7ee5c41a29eULL);
  EXPECT_EQ(fit_forest(zeros, SplitMode::kSqrtFeatures, 0, 2),
            0xb4f3c74da0e2b53bULL);
  EXPECT_EQ(fit_forest(zeros, SplitMode::kAllFeatures, 3, 1),
            0x011a37eff08f9effULL);
  EXPECT_EQ(fit_forest(constant, SplitMode::kSqrtFeatures, 0, 5),
            0x71e14478f0606f4fULL);
  EXPECT_EQ(fit_forest(constant, SplitMode::kCompletelyRandom, 0, 1),
            0x7b79c196e87ec70aULL);
}

}  // namespace
}  // namespace stac::ml
