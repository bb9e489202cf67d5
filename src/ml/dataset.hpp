// Tabular regression datasets: feature matrix + targets + names, with the
// split utilities the evaluation needs (the paper trains its model on 33%
// of profiles and competitors on 70%, and stresses K-fold cross-validation
// for generalization claims).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace stac::ml {

/// One profile training / inference sample: a counters-x-time profile
/// "image" plus tabular (static + dynamic condition) features.  Shared by
/// the deep forest and the CNN comparator.
struct ProfileSample {
  Matrix image;                 ///< counters x time (may be empty)
  std::vector<double> tabular;  ///< static + dynamic condition features
};

/// Immutable once constructed: every fit or refit builds a fresh Dataset,
/// so the caches derived from it never go stale.
class Dataset {
 public:
  Dataset() = default;
  Dataset(Matrix features, std::vector<double> targets,
          std::vector<std::string> feature_names = {});

  [[nodiscard]] std::size_t size() const { return targets_.size(); }
  [[nodiscard]] std::size_t feature_count() const { return features_.cols(); }
  [[nodiscard]] bool empty() const { return targets_.empty(); }

  [[nodiscard]] const Matrix& features() const { return features_; }
  [[nodiscard]] const std::vector<double>& targets() const { return targets_; }
  [[nodiscard]] const std::vector<std::string>& feature_names() const {
    return names_;
  }

  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return features_.row(i);
  }
  [[nodiscard]] double target(std::size_t i) const { return targets_[i]; }

  /// Stride-1 view of feature column `f` (all rows), backed by a lazily
  /// built column-major copy of the features — completely-random split
  /// scans walk columns, and the row-major matrix would stride by
  /// feature_count() per element.  Built once per dataset (thread-safe:
  /// concurrent tree fits share one build).
  [[nodiscard]] std::span<const double> column(std::size_t f) const;

  /// Dense ranks of feature column `f`, one per row: rank order is value
  /// order, values that compare equal (-0.0 and +0.0 included) share a
  /// rank, and the ranks used are exactly 0 .. (distinct values - 1).
  /// Built once per dataset for every column on first use (thread-safe,
  /// counted as `ml.rank_builds`), so every tree fitted on the dataset
  /// orders its samples with a counting sort instead of a comparison sort.
  [[nodiscard]] std::span<const std::uint32_t> ranks(std::size_t f) const;

  /// Subset by row indices.
  [[nodiscard]] Dataset subset(const std::vector<std::size_t>& rows) const;

  /// Random split: first element gets `train_fraction` of rows.
  [[nodiscard]] std::pair<Dataset, Dataset> split(double train_fraction,
                                                  Rng& rng) const;

  /// K-fold partition: returns (train, test) pairs, one per fold.
  [[nodiscard]] std::vector<std::pair<Dataset, Dataset>> kfold(std::size_t k,
                                                               Rng& rng) const;

  /// Append another dataset's columns (feature augmentation for cascades).
  /// Row counts must match; names are merged.
  [[nodiscard]] Dataset with_extra_features(const Matrix& extra) const;

 private:
  /// Derived, immutable views of `features_`, each built at most once.
  struct Caches {
    std::once_flag columns_once;
    std::vector<double> columns;  ///< features x rows, column-major
    std::once_flag ranks_once;
    std::vector<std::uint32_t> ranks;  ///< features x rows
  };
  /// Copying or assigning a Dataset gives the copy fresh, empty caches
  /// (rebuilt on demand), so the once-flags never need to transfer.
  struct CacheSlot {
    CacheSlot() : p(std::make_unique<Caches>()) {}
    CacheSlot(const CacheSlot&) : CacheSlot() {}
    CacheSlot& operator=(const CacheSlot&) {
      p = std::make_unique<Caches>();
      return *this;
    }
    std::unique_ptr<Caches> p;
  };

  Caches& columns_built() const;
  Caches& ranks_built() const;

  Matrix features_;
  std::vector<double> targets_;
  std::vector<std::string> names_;
  CacheSlot caches_;
};

}  // namespace stac::ml
