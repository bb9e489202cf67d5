#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace stac::ml {

namespace {

struct SplitCandidate {
  bool found = false;
  std::uint32_t feature = 0;
  double threshold = 0.0;
  double gain = 0.0;
  /// Samples on the left side (presorted path: the split feature's sorted
  /// prefix length, which pins the cut without re-scanning).
  std::size_t left_count = 0;
};

/// Sum and sum-of-squares over a row subset for one pass variance.
struct Moments {
  double sum = 0.0;
  double sum2 = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    sum2 += v * v;
    ++n;
  }
  [[nodiscard]] double sse() const {
    if (n == 0) return 0.0;
    return sum2 - sum * sum / static_cast<double>(n);
  }
  [[nodiscard]] double mean() const {
    return n ? sum / static_cast<double>(n) : 0.0;
  }
};

}  // namespace

/// State of the presorted build: every feature's sample order, established
/// once per fit by a counting sort over the dataset's dense ranks and kept
/// through stable partitions, so each node's split sweep is a stride-1
/// pass over already-sorted ranks.  "Slots" index the (possibly
/// duplicated) bootstrap sample, not dataset rows: slot s stands for
/// dataset row work[s].
struct DecisionTree::PresortContext {
  PresortContext(const Dataset& d, const std::vector<std::size_t>& w)
      : data(d), work(w), n(w.size()), target(n),
        order(d.feature_count() * n), ranks(d.feature_count() * n), slots(n),
        goes_left(n), tmp_order(n), tmp_ranks(n) {
    for (std::size_t s = 0; s < n; ++s) target[s] = data.target(work[s]);
    std::iota(slots.begin(), slots.end(), 0);
  }

  const Dataset& data;
  const std::vector<std::size_t>& work;
  std::size_t n;  ///< sample (slot) count
  std::vector<double> target;  ///< target[slot]
  /// features x n: order[f*n + i] is the slot with the i-th smallest value
  /// of feature f (ties in slot order) within the node ranges currently
  /// partitioning the array.
  std::vector<std::uint32_t> order;
  /// features x n: ranks[f*n + i] is the dataset rank of order[f*n + i]
  /// (stride-1 sweep reads; equal ranks are equal values).
  std::vector<std::uint32_t> ranks;
  /// Node slots in bootstrap order (stable partitions preserve it).  Node
  /// moments accumulate over this order.
  std::vector<std::uint32_t> slots;
  std::vector<char> goes_left;           ///< per-slot partition flag
  std::vector<std::uint32_t> tmp_order;  ///< stable-partition spill
  std::vector<std::uint32_t> tmp_ranks;

  /// Feature `f`'s value at slot `s` (row-major read: the exhaustive
  /// modes never need the dataset's column cache).
  [[nodiscard]] double value(std::size_t f, std::uint32_t s) const {
    return data.row(work[s])[f];
  }
};

DecisionTree::DecisionTree(TreeConfig config) : config_(config) {}

void DecisionTree::fit(const Dataset& data, std::span<const std::size_t> rows) {
  STAC_REQUIRE(!data.empty());
  STAC_TRACE_SPAN(span, "tree.fit", "ml");
  span.arg("rows", static_cast<std::uint64_t>(rows.empty() ? data.size()
                                                           : rows.size()));
  span.arg("features", static_cast<std::uint64_t>(data.feature_count()));
  feature_count_ = data.feature_count();
  nodes_.clear();
  std::vector<std::size_t> work(rows.begin(), rows.end());
  if (work.empty()) {
    work.resize(data.size());
    std::iota(work.begin(), work.end(), 0);
  }
  Rng rng(config_.seed);

  if (config_.split_mode == SplitMode::kCompletelyRandom) {
    build(data, work, 0, work.size(), 0, rng);
    return;
  }
  const std::size_t n = work.size();
  STAC_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max());
  PresortContext ctx(data, work);
  // One stable counting sort per feature: slots bucketed by dataset rank in
  // slot order come out in (value, slot) order, ties included.
  std::vector<std::uint32_t> key(n);
  std::vector<std::uint32_t> start;
  for (std::size_t f = 0; f < feature_count_; ++f) {
    const auto rk = data.ranks(f);
    start.assign(data.size() + 1, 0);  // ranks < distinct values <= rows
    for (std::size_t s = 0; s < n; ++s) {
      key[s] = rk[work[s]];
      ++start[key[s] + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::uint32_t* ord = ctx.order.data() + f * n;
    std::uint32_t* rks = ctx.ranks.data() + f * n;
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t at = start[key[s]]++;
      ord[at] = static_cast<std::uint32_t>(s);
      rks[at] = key[s];
    }
  }
  build_presorted(ctx, 0, n, 0, rng);
}

std::int32_t DecisionTree::build_presorted(PresortContext& ctx,
                                           std::size_t begin, std::size_t end,
                                           std::size_t depth, Rng& rng) {
  const std::size_t n = end - begin;
  STAC_REQUIRE(n > 0);

  Moments all;
  for (std::size_t i = begin; i < end; ++i)
    all.add(ctx.target[ctx.slots[i]]);

  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(node_id)].value = all.mean();

  const bool depth_ok = config_.max_depth == 0 || depth < config_.max_depth;
  const bool pure = all.sse() <= 1e-12;
  if (!depth_ok || pure || n < config_.min_samples_split) return node_id;

  std::vector<std::size_t> candidates;
  if (config_.split_mode == SplitMode::kAllFeatures) {
    candidates.resize(feature_count_);
    std::iota(candidates.begin(), candidates.end(), 0);
  } else {  // kSqrtFeatures
    const auto k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::sqrt(static_cast<double>(feature_count_))));
    candidates = rng.sample_indices(feature_count_, k);
  }
  // The parent left this node's feature segments unpartitioned unless it
  // can split.  Returning after the candidate draw keeps the RNG stream
  // unchanged.
  if (!can_split(n, depth)) return node_id;

  SplitCandidate best;
  for (std::size_t f : candidates) {
    const std::uint32_t* rk = ctx.ranks.data() + f * ctx.n + begin;
    const std::uint32_t* ord = ctx.order.data() + f * ctx.n + begin;
    if (rk[0] == rk[n - 1]) continue;  // constant feature here
    Moments left;
    Moments right = all;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double t = ctx.target[ord[i]];
      left.add(t);
      right.sum -= t;
      right.sum2 -= t * t;
      --right.n;
      if (rk[i] == rk[i + 1]) continue;  // no cut between ties
      if (left.n < config_.min_samples_leaf ||
          right.n < config_.min_samples_leaf)
        continue;
      const double gain = all.sse() - left.sse() - right.sse();
      if (!best.found || gain > best.gain) {
        best.found = true;
        best.feature = static_cast<std::uint32_t>(f);
        best.gain = gain;
        best.left_count = i + 1;
      }
    }
  }

  if (!best.found || best.gain <= 0.0) return node_id;

  // The split feature's segment is sorted, so the left side is its sorted
  // prefix and the threshold the midpoint of the values around the cut.
  // Fix the cut up by threshold: the midpoint of two adjacent doubles can
  // round up onto the right neighbour, and predict-time routing sends
  // value == threshold left.
  const std::uint32_t* bord = ctx.order.data() + best.feature * ctx.n;
  std::size_t mid = begin + best.left_count;
  best.threshold = 0.5 * (ctx.value(best.feature, bord[mid - 1]) +
                          ctx.value(best.feature, bord[mid]));
  while (mid < end && ctx.value(best.feature, bord[mid]) <= best.threshold)
    ++mid;
  if (mid == end) return node_id;  // degenerate partition
  for (std::size_t i = begin; i < end; ++i) ctx.goes_left[bord[i]] = i < mid;
  // Stable partitions, branch-free: every element is written to both the
  // left cursor (a position already read) and the spill buffer, and only
  // the cursor its side owns advances.  Slot order partitions like the
  // feature segments.
  {
    std::uint32_t* sl = ctx.slots.data();
    std::size_t l = begin, spill = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t s = sl[i];
      const bool left = ctx.goes_left[s];
      sl[l] = s;
      ctx.tmp_order[spill] = s;
      l += left;
      spill += !left;
    }
    std::copy_n(ctx.tmp_order.data(), spill, sl + l);
  }
  // Feature segments are read only by a child that sweeps them.
  if (can_split(mid - begin, depth + 1) || can_split(end - mid, depth + 1)) {
    for (std::size_t f = 0; f < feature_count_; ++f) {
      std::uint32_t* ord = ctx.order.data() + f * ctx.n;
      std::uint32_t* rk = ctx.ranks.data() + f * ctx.n;
      std::size_t l = begin, spill = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t o = ord[i];
        const std::uint32_t r = rk[i];
        const bool left = ctx.goes_left[o];
        ord[l] = o;
        rk[l] = r;
        ctx.tmp_order[spill] = o;
        ctx.tmp_ranks[spill] = r;
        l += left;
        spill += !left;
      }
      std::copy_n(ctx.tmp_order.data(), spill, ord + l);
      std::copy_n(ctx.tmp_ranks.data(), spill, rk + l);
    }
  }

  nodes_[static_cast<std::size_t>(node_id)].feature = best.feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best.threshold;
  nodes_[static_cast<std::size_t>(node_id)].gain = best.gain;
  const std::int32_t left = build_presorted(ctx, begin, mid, depth + 1, rng);
  const std::int32_t right = build_presorted(ctx, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

bool DecisionTree::can_split(std::size_t n, std::size_t depth) const {
  return (config_.max_depth == 0 || depth < config_.max_depth) &&
         n >= config_.min_samples_split && n >= 2 * config_.min_samples_leaf;
}

std::int32_t DecisionTree::build(const Dataset& data,
                                 std::vector<std::size_t>& rows,
                                 std::size_t begin, std::size_t end,
                                 std::size_t depth, Rng& rng) {
  const std::size_t n = end - begin;
  STAC_REQUIRE(n > 0);

  Moments all;
  for (std::size_t i = begin; i < end; ++i) all.add(data.target(rows[i]));

  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(node_id)].value = all.mean();

  const bool depth_ok = config_.max_depth == 0 || depth < config_.max_depth;
  const bool pure = all.sse() <= 1e-12;
  if (!depth_ok || pure || n < config_.min_samples_split) return node_id;

  // Try a handful of random features until one is splittable: random
  // feature, random threshold between the node's observed min and max.
  const std::vector<std::size_t> candidates = rng.sample_indices(
      feature_count_, std::min<std::size_t>(feature_count_, 8));
  SplitCandidate best;
  for (std::size_t f : candidates) {
    const auto col = data.column(f);  // stride-1 scans
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (std::size_t i = begin; i < end; ++i) {
      const double v = col[rows[i]];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi <= lo) continue;  // constant feature here
    const double thr = rng.uniform(lo, hi);
    // Both sides' moments in a single pass over the rows (gain is
    // bookkeeping only, not used for selection).
    Moments left, right;
    for (std::size_t i = begin; i < end; ++i) {
      (col[rows[i]] <= thr ? left : right).add(data.target(rows[i]));
    }
    if (left.n == 0 || left.n == n) continue;
    best.found = true;
    best.feature = static_cast<std::uint32_t>(f);
    best.threshold = thr;
    best.gain = all.sse() - left.sse() - right.sse();
    break;
  }

  if (!best.found || best.gain <= 0.0) return node_id;

  // Partition rows in place around the threshold.
  const auto split_col = data.column(best.feature);
  const auto mid = static_cast<std::size_t>(
      std::stable_partition(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                            rows.begin() + static_cast<std::ptrdiff_t>(end),
                            [&](std::size_t r) {
                              return split_col[r] <= best.threshold;
                            }) -
      rows.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  nodes_[static_cast<std::size_t>(node_id)].feature = best.feature;
  nodes_[static_cast<std::size_t>(node_id)].threshold = best.threshold;
  nodes_[static_cast<std::size_t>(node_id)].gain = best.gain;
  const std::int32_t left = build(data, rows, begin, mid, depth + 1, rng);
  const std::int32_t right = build(data, rows, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

double DecisionTree::predict(std::span<const double> x) const {
  STAC_REQUIRE_MSG(trained(), "predict before fit");
  STAC_REQUIRE(x.size() == feature_count_);
  std::size_t node = 0;
  for (;;) {
    const Node& nd = nodes_[node];
    if (nd.left < 0) return nd.value;
    node = static_cast<std::size_t>(x[nd.feature] <= nd.threshold ? nd.left
                                                                  : nd.right);
  }
}

std::vector<double> DecisionTree::predict(const Matrix& x) const {
  std::vector<double> out;
  out.reserve(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out.push_back(predict(x.row(r)));
  return out;
}

std::size_t DecisionTree::depth() const {
  // Iterative depth computation over the implicit tree.
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
  std::size_t best = 0;
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& nd = nodes_[node];
    if (nd.left >= 0) {
      stack.emplace_back(static_cast<std::size_t>(nd.left), d + 1);
      stack.emplace_back(static_cast<std::size_t>(nd.right), d + 1);
    }
  }
  return best;
}

std::vector<double> DecisionTree::feature_importance() const {
  std::vector<double> imp(feature_count_, 0.0);
  for (const Node& nd : nodes_)
    if (nd.left >= 0) imp[nd.feature] += nd.gain;
  return imp;
}

}  // namespace stac::ml
