// Deep forest = multi-grain scanning + cascade (§4.1, after gcForest /
// Zhou & Feng).  Operates on profile "images" (counters x time) with an
// optional tabular side-channel of static/dynamic condition features that
// bypass the scanner and enter the cascade directly.
//
// The tabular-only variant (fit without images) is the paper's
// "queueing simulator with concepts" comparator: cascade-learned concepts
// without representational features.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ml/cascade.hpp"
#include "ml/mgs.hpp"

namespace stac::ml {

struct DeepForestConfig {
  MgsConfig mgs;
  CascadeConfig cascade;
};

class DeepForest {
 public:
  explicit DeepForest(DeepForestConfig config = {});

  /// Full pipeline: MGS over images, cascade over tabular + window features.
  void fit(const std::vector<ProfileSample>& samples,
           const std::vector<double>& targets);

  /// Warm-start refit: `samples`/`targets` must extend the training set the
  /// model was fitted on (identical prefix).  The multi-grain scanner is
  /// kept fixed — only the new samples' window features are transformed and
  /// appended to the cached per-grain blocks (and their images to the reuse
  /// lookup) — and the cascade warm-refits
  /// (CascadeForest::refit_incremental).  Requires a prior fit().
  void refit_incremental(const std::vector<ProfileSample>& samples,
                         const std::vector<double>& targets,
                         double retrain_fraction = 0.125);

  /// A sample whose image is bit-for-bit one of the training images reuses
  /// that row's training-time window features instead of re-scanning it
  /// (DESIGN.md §10); any other image is scanned.  Either way the result is
  /// what MultiGrainScanner::transform would give.
  [[nodiscard]] double predict(const ProfileSample& sample) const;

  /// Learned concept vector (cascade outputs) — the representation used for
  /// the §5.2 workload-insight clustering.
  [[nodiscard]] std::vector<double> concepts(const ProfileSample& sample) const;

  [[nodiscard]] bool trained() const { return cascade_.trained(); }
  [[nodiscard]] bool uses_mgs() const { return scanner_.has_value(); }

 private:
  [[nodiscard]] std::vector<std::vector<double>> window_features(
      const ProfileSample& sample) const;
  /// Row of the training image bit-for-bit equal to `image`, if any.
  [[nodiscard]] std::optional<std::size_t> training_row(
      const Matrix& image) const;

  DeepForestConfig config_;
  std::optional<MultiGrainScanner> scanner_;
  CascadeForest cascade_;
  std::size_t tabular_features_ = 0;
  /// Training-time per-grain window-feature blocks, cached so warm refits
  /// only transform the appended samples (rows track the training set).
  std::vector<Matrix> per_level_extra_;
  /// Training images, row-aligned with per_level_extra_ (the reuse lookup).
  /// Immutable and shared, so a model copy (one per published serving
  /// bundle) shares them instead of copying every image.
  std::vector<std::shared_ptr<const Matrix>> train_images_;
};

}  // namespace stac::ml
