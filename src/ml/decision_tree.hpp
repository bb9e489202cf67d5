// CART regression trees, the building block of every forest in the deep
// forest (§4.1): "random" trees choose the best split among sqrt(f)
// candidate features by impurity; "completely random" trees pick both the
// feature and the cut point at random and grow until leaves are pure —
// exactly the two tree types gcForest mixes for ensemble diversity.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace stac::ml {

enum class SplitMode : std::uint8_t {
  kAllFeatures,       ///< classic CART (single decision tree baseline)
  kSqrtFeatures,      ///< random-forest trees
  kCompletelyRandom,  ///< completely-random trees (random feature + cut)
};

struct TreeConfig {
  SplitMode split_mode = SplitMode::kSqrtFeatures;
  /// 0 = grow to purity (the gcForest setting); otherwise a depth cap.
  std::size_t max_depth = 0;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  std::uint64_t seed = 1;
};

class DecisionTree {
 public:
  /// One tree node in the contiguous `nodes()` array (node 0 is the root).
  /// Public so FlatForest can compile trained trees into its SoA arena.
  struct Node {
    std::int32_t left = -1;   ///< -1: leaf
    std::int32_t right = -1;
    std::uint32_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;       ///< leaf prediction / node mean
    double gain = 0.0;        ///< impurity decrease at this split
  };

  explicit DecisionTree(TreeConfig config = {});

  /// Fit on the rows of `data` selected by `rows` (empty = all rows).
  void fit(const Dataset& data, std::span<const std::size_t> rows = {});

  [[nodiscard]] double predict(std::span<const double> x) const;
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;

  [[nodiscard]] bool trained() const { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t depth() const;

  /// Total impurity decrease attributed to each feature (importance).
  [[nodiscard]] std::vector<double> feature_importance() const;

  /// The fitted node array (empty before fit).  predict() walks it with
  /// `x[nd.feature] <= nd.threshold ? left : right` — the exact semantics
  /// any flattened representation must reproduce bitwise.
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

 private:
  /// kCompletelyRandom: random feature and cut, no sorting.
  std::int32_t build(const Dataset& data, std::vector<std::size_t>& rows,
                     std::size_t begin, std::size_t end, std::size_t depth,
                     Rng& rng);

  /// Exhaustive modes: presorted-feature-index build (see decision_tree.cpp).
  struct PresortContext;
  std::int32_t build_presorted(PresortContext& ctx, std::size_t begin,
                               std::size_t end, std::size_t depth, Rng& rng);
  /// Whether an exhaustive node of `n` samples at `depth` sweeps for a cut:
  /// under the depth cap, at least min_samples_split, and room for
  /// min_samples_leaf on both sides.  A parent partitions its feature
  /// segments only for a child that passes, so both decisions call this.
  [[nodiscard]] bool can_split(std::size_t n, std::size_t depth) const;

  TreeConfig config_;
  std::size_t feature_count_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace stac::ml
