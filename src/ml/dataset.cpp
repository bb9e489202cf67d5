#include "ml/dataset.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace stac::ml {

Dataset::Dataset(Matrix features, std::vector<double> targets,
                 std::vector<std::string> feature_names)
    : features_(std::move(features)), targets_(std::move(targets)),
      names_(std::move(feature_names)) {
  STAC_REQUIRE(features_.rows() == targets_.size());
  STAC_REQUIRE(names_.empty() || names_.size() == features_.cols());
}

Dataset::Caches& Dataset::columns_built() const {
  Caches& c = *caches_.p;
  std::call_once(c.columns_once, [&] {
    const std::size_t n = size();
    const std::size_t cols = feature_count();
    c.columns.resize(n * cols);
    for (std::size_t r = 0; r < n; ++r) {
      const auto src = features_.row(r);
      for (std::size_t f = 0; f < cols; ++f) c.columns[f * n + r] = src[f];
    }
  });
  return c;
}

Dataset::Caches& Dataset::ranks_built() const {
  Caches& c = *caches_.p;
  std::call_once(c.ranks_once, [&] {
    const std::size_t n = size();
    const std::size_t cols = feature_count();
    STAC_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max());
    c.ranks.resize(n * cols);
    std::vector<std::pair<double, std::uint32_t>> by_value(n);
    const double* x = features_.data().data();
    for (std::size_t f = 0; f < cols; ++f) {
      for (std::size_t r = 0; r < n; ++r)
        by_value[r] = {x[r * cols + f], static_cast<std::uint32_t>(r)};
      std::sort(by_value.begin(), by_value.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      // The rank steps only where the value strictly grows, so -0.0 and
      // +0.0 (equal under <) share one.
      std::uint32_t rank = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0 && by_value[i - 1].first < by_value[i].first) ++rank;
        c.ranks[f * n + by_value[i].second] = rank;
      }
    }
    obs::count("ml.rank_builds");
  });
  return c;
}

std::span<const double> Dataset::column(std::size_t f) const {
  STAC_REQUIRE(f < feature_count());
  return {columns_built().columns.data() + f * size(), size()};
}

std::span<const std::uint32_t> Dataset::ranks(std::size_t f) const {
  STAC_REQUIRE(f < feature_count());
  return {ranks_built().ranks.data() + f * size(), size()};
}

Dataset Dataset::subset(const std::vector<std::size_t>& rows) const {
  Matrix x(rows.size(), feature_count());
  std::vector<double> y;
  y.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    STAC_REQUIRE(rows[i] < size());
    const auto src = features_.row(rows[i]);
    std::copy(src.begin(), src.end(), x.row(i).begin());
    y.push_back(targets_[rows[i]]);
  }
  return Dataset(std::move(x), std::move(y), names_);
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           Rng& rng) const {
  STAC_REQUIRE(train_fraction > 0.0 && train_fraction < 1.0);
  std::vector<std::size_t> idx(size());
  for (std::size_t i = 0; i < size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  const auto n_train = static_cast<std::size_t>(
      train_fraction * static_cast<double>(size()));
  STAC_REQUIRE_MSG(n_train > 0 && n_train < size(),
                   "split leaves an empty side");
  std::vector<std::size_t> train(idx.begin(), idx.begin() + n_train);
  std::vector<std::size_t> test(idx.begin() + n_train, idx.end());
  return {subset(train), subset(test)};
}

std::vector<std::pair<Dataset, Dataset>> Dataset::kfold(std::size_t k,
                                                        Rng& rng) const {
  STAC_REQUIRE(k >= 2 && k <= size());
  std::vector<std::size_t> idx(size());
  for (std::size_t i = 0; i < size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  std::vector<std::pair<Dataset, Dataset>> folds;
  folds.reserve(k);
  for (std::size_t f = 0; f < k; ++f) {
    std::vector<std::size_t> train, test;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (i % k == f)
        test.push_back(idx[i]);
      else
        train.push_back(idx[i]);
    }
    folds.emplace_back(subset(train), subset(test));
  }
  return folds;
}

Dataset Dataset::with_extra_features(const Matrix& extra) const {
  STAC_REQUIRE(extra.rows() == size());
  Matrix x(size(), feature_count() + extra.cols());
  for (std::size_t r = 0; r < size(); ++r) {
    const auto base = features_.row(r);
    const auto add = extra.row(r);
    auto dst = x.row(r);
    std::copy(base.begin(), base.end(), dst.begin());
    std::copy(add.begin(), add.end(), dst.begin() + base.size());
  }
  std::vector<std::string> names = names_;
  if (!names.empty()) {
    for (std::size_t c = 0; c < extra.cols(); ++c)
      names.push_back("aug_" + std::to_string(c));
  }
  return Dataset(std::move(x), targets_, std::move(names));
}

}  // namespace stac::ml
