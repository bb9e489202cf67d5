#include "ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.hpp"

namespace stac::ml {
namespace {

/// Step function dataset: y = 1 when x0 > 0.5, else 0.
Dataset step_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(0, 3);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform();
    x.append_row(std::vector<double>{a, rng.uniform(), rng.uniform()});
    y.push_back(a > 0.5 ? 1.0 : 0.0);
  }
  return Dataset(std::move(x), std::move(y));
}

TEST(DecisionTree, LearnsStepFunction) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  const Dataset d = step_dataset(400, 1);
  tree.fit(d);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.9, 0.5, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.1, 0.5, 0.5}), 0.0);
}

TEST(DecisionTree, PureTargetsYieldSingleLeaf) {
  Matrix x(0, 1);
  std::vector<double> y;
  for (int i = 0; i < 10; ++i) {
    x.append_row(std::vector<double>{static_cast<double>(i)});
    y.push_back(7.0);
  }
  DecisionTree tree;
  tree.fit(Dataset(std::move(x), std::move(y)));
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{99.0}), 7.0);
}

TEST(DecisionTree, MaxDepthCapsGrowth) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures,
                               .max_depth = 2});
  tree.fit(step_dataset(200, 2));
  EXPECT_LE(tree.depth(), 3u);  // root at depth 1 + 2 levels of splits
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures,
                               .min_samples_leaf = 50});
  tree.fit(step_dataset(100, 3));
  // With 100 rows and 50-per-leaf, at most one split.
  EXPECT_LE(tree.node_count(), 3u);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), ContractViolation);
}

TEST(DecisionTree, WrongFeatureCountThrows) {
  DecisionTree tree;
  tree.fit(step_dataset(50, 4));
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), ContractViolation);
}

TEST(DecisionTree, FeatureImportanceIdentifiesSignal) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  tree.fit(step_dataset(400, 5));
  const auto imp = tree.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[1]);
  EXPECT_GT(imp[0], imp[2]);
}

TEST(DecisionTree, CompletelyRandomStillLearnsCoarsely) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kCompletelyRandom,
                               .seed = 7});
  tree.fit(step_dataset(600, 6));
  // Random splits grow to purity, so training-region predictions are
  // directionally right.
  EXPECT_GT(tree.predict(std::vector<double>{0.95, 0.5, 0.5}), 0.7);
  EXPECT_LT(tree.predict(std::vector<double>{0.05, 0.5, 0.5}), 0.3);
}

TEST(DecisionTree, MatrixPredictShapes) {
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  const Dataset d = step_dataset(100, 8);
  tree.fit(d);
  const auto preds = tree.predict(d.features());
  EXPECT_EQ(preds.size(), 100u);
}

TEST(DecisionTree, FitOnRowSubset) {
  const Dataset d = step_dataset(200, 9);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 100; ++i) rows.push_back(i);
  DecisionTree tree(TreeConfig{.split_mode = SplitMode::kAllFeatures});
  tree.fit(d, rows);
  EXPECT_TRUE(tree.trained());
}

/// Independent oracle for the exhaustive split modes: the textbook CART
/// search that re-sorts every candidate's (value, target) pairs at every
/// node.  On distinct-valued data its order is the trainer's (value, slot)
/// order, so the node arrays must agree bit for bit; it breaks value ties
/// by target, so tie-heavy data is pinned by the golden digests
/// (tree_golden_test.cpp) instead.
class PerNodeSortOracle {
 public:
  PerNodeSortOracle(const TreeConfig& config, const Dataset& data)
      : config_(config), data_(data), rng_(config.seed) {}

  std::vector<DecisionTree::Node> fit(std::vector<std::size_t> rows) {
    if (rows.empty()) {
      rows.resize(data_.size());
      std::iota(rows.begin(), rows.end(), 0);
    }
    rows_ = std::move(rows);
    build(0, rows_.size(), 0);
    return std::move(nodes_);
  }

 private:
  std::int32_t build(std::size_t begin, std::size_t end, std::size_t depth) {
    const std::size_t n = end - begin;
    const std::size_t features = data_.feature_count();
    double sum = 0.0, sum2 = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double t = data_.target(rows_[i]);
      sum += t;
      sum2 += t * t;
    }
    auto sse = [](double s, double s2, std::size_t k) {
      return k == 0 ? 0.0 : s2 - s * s / static_cast<double>(k);
    };
    const double all_sse = sse(sum, sum2, n);
    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back({});
    nodes_.back().value = sum / static_cast<double>(n);
    const bool depth_ok = config_.max_depth == 0 || depth < config_.max_depth;
    if (!depth_ok || all_sse <= 1e-12 || n < config_.min_samples_split)
      return id;

    std::vector<std::size_t> candidates;
    if (config_.split_mode == SplitMode::kAllFeatures) {
      candidates.resize(features);
      std::iota(candidates.begin(), candidates.end(), 0);
    } else {
      const auto k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::sqrt(static_cast<double>(features))));
      candidates = rng_.sample_indices(features, k);
    }
    bool found = false;
    std::uint32_t feature = 0;
    double threshold = 0.0, gain = 0.0;
    std::vector<std::pair<double, double>> fv(n);  // (value, target)
    for (std::size_t f : candidates) {
      for (std::size_t i = begin; i < end; ++i)
        fv[i - begin] = {data_.row(rows_[i])[f], data_.target(rows_[i])};
      std::sort(fv.begin(), fv.end());
      if (fv.front().first == fv.back().first) continue;
      double ls = 0.0, ls2 = 0.0, rs = sum, rs2 = sum2;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        ls += fv[i].second;
        ls2 += fv[i].second * fv[i].second;
        rs -= fv[i].second;
        rs2 -= fv[i].second * fv[i].second;
        if (fv[i].first == fv[i + 1].first) continue;
        const std::size_t ln = i + 1, rn = n - ln;
        if (ln < config_.min_samples_leaf || rn < config_.min_samples_leaf)
          continue;
        const double g = all_sse - sse(ls, ls2, ln) - sse(rs, rs2, rn);
        if (!found || g > gain) {
          found = true;
          feature = static_cast<std::uint32_t>(f);
          threshold = 0.5 * (fv[i].first + fv[i + 1].first);
          gain = g;
        }
      }
    }
    if (!found || gain <= 0.0) return id;
    const auto mid = static_cast<std::size_t>(
        std::stable_partition(
            rows_.begin() + static_cast<std::ptrdiff_t>(begin),
            rows_.begin() + static_cast<std::ptrdiff_t>(end),
            [&](std::size_t r) { return data_.row(r)[feature] <= threshold; }) -
        rows_.begin());
    if (mid == begin || mid == end) return id;
    nodes_[static_cast<std::size_t>(id)].feature = feature;
    nodes_[static_cast<std::size_t>(id)].threshold = threshold;
    nodes_[static_cast<std::size_t>(id)].gain = gain;
    const std::int32_t left = build(begin, mid, depth + 1);
    const std::int32_t right = build(mid, end, depth + 1);
    nodes_[static_cast<std::size_t>(id)].left = left;
    nodes_[static_cast<std::size_t>(id)].right = right;
    return id;
  }

  TreeConfig config_;
  const Dataset& data_;
  Rng rng_;
  std::vector<std::size_t> rows_;
  std::vector<DecisionTree::Node> nodes_;
};

/// Node arrays equal field by field, doubles compared by bit pattern.
void expect_same_nodes(const std::vector<DecisionTree::Node>& a,
                       const std::vector<DecisionTree::Node>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].left, b[i].left) << i;
    EXPECT_EQ(a[i].right, b[i].right) << i;
    EXPECT_EQ(a[i].feature, b[i].feature) << i;
    EXPECT_EQ(std::memcmp(&a[i].threshold, &b[i].threshold, sizeof(double)), 0)
        << i;
    EXPECT_EQ(std::memcmp(&a[i].value, &b[i].value, sizeof(double)), 0) << i;
    EXPECT_EQ(std::memcmp(&a[i].gain, &b[i].gain, sizeof(double)), 0) << i;
  }
}

TEST(DecisionTree, PresortMatchesLegacySortBitwise) {
  // With continuous (distinct) feature values the presorted split search
  // must reproduce the per-node-sort oracle exactly: same node arrays,
  // bitwise-equal thresholds, gains and leaf values.
  Rng rng(11);
  Matrix x(0, 5);
  std::vector<double> y;
  for (std::size_t i = 0; i < 300; ++i) {
    std::vector<double> row(5);
    for (auto& v : row) v = rng.uniform();
    x.append_row(row);
    y.push_back(row[0] * row[1] - row[2] + rng.normal(0.0, 0.05));
  }
  const Dataset d(std::move(x), std::move(y));

  for (const SplitMode mode :
       {SplitMode::kAllFeatures, SplitMode::kSqrtFeatures}) {
    for (const std::size_t min_leaf : {1, 6}) {
      TreeConfig cfg;
      cfg.split_mode = mode;
      cfg.min_samples_leaf = min_leaf;
      cfg.max_depth = min_leaf == 1 ? 0 : 7;
      cfg.seed = 99;
      DecisionTree fast(cfg);
      fast.fit(d);
      expect_same_nodes(PerNodeSortOracle(cfg, d).fit({}), fast.nodes());
    }
  }
}

TEST(DecisionTree, PresortFitOnRowSubsetMatchesLegacy) {
  // The presorted path indexes bootstrap slots, not dataset rows — check a
  // subset with duplicated rows (the random-forest bootstrap shape).
  // Duplicated rows tie on every feature, but a duplicate also repeats its
  // target, so the oracle's target tie-break cannot reorder them.
  Rng rng(12);
  Matrix x(0, 4);
  std::vector<double> y;
  for (std::size_t i = 0; i < 120; ++i) {
    std::vector<double> row(4);
    for (auto& v : row) v = rng.uniform();
    x.append_row(row);
    y.push_back(row[0] + 2.0 * row[3] + rng.normal(0.0, 0.03));
  }
  const Dataset d(std::move(x), std::move(y));
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < 150; ++i)
    slots.push_back(rng.uniform_index(d.size()));

  for (const SplitMode mode :
       {SplitMode::kAllFeatures, SplitMode::kSqrtFeatures}) {
    TreeConfig cfg;
    cfg.split_mode = mode;
    cfg.seed = 5;
    DecisionTree fast(cfg);
    fast.fit(d, slots);
    expect_same_nodes(PerNodeSortOracle(cfg, d).fit(slots), fast.nodes());
  }
}

TEST(DecisionTree, DeterministicForSeed) {
  const Dataset d = step_dataset(300, 10);
  DecisionTree a(TreeConfig{.split_mode = SplitMode::kSqrtFeatures, .seed = 3});
  DecisionTree b(TreeConfig{.split_mode = SplitMode::kSqrtFeatures, .seed = 3});
  a.fit(d);
  b.fit(d);
  for (double v = 0.0; v < 1.0; v += 0.1) {
    const std::vector<double> x{v, 0.5, 0.5};
    EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
  }
}

}  // namespace
}  // namespace stac::ml
