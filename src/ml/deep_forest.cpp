#include "ml/deep_forest.hpp"

#include <cstring>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace stac::ml {

DeepForest::DeepForest(DeepForestConfig config)
    : config_(std::move(config)), cascade_(config_.cascade) {}

void DeepForest::fit(const std::vector<ProfileSample>& samples,
                     const std::vector<double>& targets) {
  STAC_REQUIRE(!samples.empty());
  STAC_REQUIRE(samples.size() == targets.size());
  tabular_features_ = samples.front().tabular.size();
  for (const auto& s : samples)
    STAC_REQUIRE_MSG(s.tabular.size() == tabular_features_,
                     "tabular feature width mismatch");

  const bool with_images = !samples.front().image.empty();

  per_level_extra_.clear();
  train_images_.clear();
  if (with_images) {
    std::vector<Matrix> images;
    images.reserve(samples.size());
    for (const auto& s : samples) images.push_back(s.image);
    scanner_.emplace(config_.mgs);
    scanner_->fit(images, targets);

    // One extra feature block per grain, introduced level by level.
    per_level_extra_.resize(scanner_->grain_count());
    for (std::size_t g = 0; g < scanner_->grain_count(); ++g)
      per_level_extra_[g] = Matrix(samples.size(), scanner_->feature_count(g));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto feats = scanner_->transform(samples[i].image);
      for (std::size_t g = 0; g < feats.size(); ++g) {
        auto dst = per_level_extra_[g].row(i);
        std::copy(feats[g].begin(), feats[g].end(), dst.begin());
      }
    }
    train_images_.reserve(images.size());
    for (Matrix& image : images)
      train_images_.push_back(std::make_shared<const Matrix>(std::move(image)));
  } else {
    scanner_.reset();
  }

  Matrix x(samples.size(), tabular_features_);
  std::vector<double> y(targets.begin(), targets.end());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto dst = x.row(i);
    std::copy(samples[i].tabular.begin(), samples[i].tabular.end(),
              dst.begin());
  }
  cascade_ = CascadeForest(config_.cascade);
  cascade_.fit(Dataset(std::move(x), std::move(y)), per_level_extra_);
}

void DeepForest::refit_incremental(const std::vector<ProfileSample>& samples,
                                   const std::vector<double>& targets,
                                   double retrain_fraction) {
  STAC_REQUIRE_MSG(trained(), "refit_incremental before fit");
  STAC_REQUIRE(!samples.empty());
  STAC_REQUIRE(samples.size() == targets.size());
  const std::size_t old_n = cascade_.trained_rows();
  STAC_REQUIRE_MSG(samples.size() >= old_n,
                   "warm refit requires a grown (or equal) training set");
  for (const auto& s : samples)
    STAC_REQUIRE_MSG(s.tabular.size() == tabular_features_,
                     "tabular feature width mismatch");

  if (scanner_) {
    // The scanner stays fixed between full refits; only appended samples
    // need transforming, extending the cached per-grain blocks.
    for (std::size_t i = old_n; i < samples.size(); ++i) {
      STAC_REQUIRE_MSG(!samples[i].image.empty(),
                       "model was trained with images; sample has none");
      const auto feats = scanner_->transform(samples[i].image);
      for (std::size_t g = 0; g < feats.size(); ++g)
        per_level_extra_[g].append_row(feats[g]);
      train_images_.push_back(std::make_shared<const Matrix>(samples[i].image));
    }
  }

  Matrix x(samples.size(), tabular_features_);
  std::vector<double> y(targets.begin(), targets.end());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    auto dst = x.row(i);
    std::copy(samples[i].tabular.begin(), samples[i].tabular.end(),
              dst.begin());
  }
  cascade_.refit_incremental(Dataset(std::move(x), std::move(y)),
                             per_level_extra_, retrain_fraction);
}

std::vector<std::vector<double>> DeepForest::window_features(
    const ProfileSample& sample) const {
  if (!scanner_) return {};
  STAC_REQUIRE_MSG(!sample.image.empty(),
                   "model was trained with images; sample has none");
  // Exploration queries borrow library images the model was trained on;
  // their features are already in per_level_extra_, computed by this same
  // scanner, so the copy is exactly what a re-scan would return.
  if (const auto row = training_row(sample.image)) {
    obs::count("ml.mgs_reused");
    std::vector<std::vector<double>> feats;
    feats.reserve(per_level_extra_.size());
    for (const Matrix& block : per_level_extra_) {
      const auto r = block.row(*row);
      feats.emplace_back(r.begin(), r.end());
    }
    return feats;
  }
  obs::count("ml.mgs_scanned");
  return scanner_->transform(sample.image);
}

std::optional<std::size_t> DeepForest::training_row(
    const Matrix& image) const {
  const auto bytes = image.data().size_bytes();
  for (std::size_t i = 0; i < train_images_.size(); ++i) {
    const Matrix& t = *train_images_[i];
    // Bitwise, not ==: -0.0 and +0.0 (or two NaNs) are different images.
    if (t.rows() == image.rows() && t.cols() == image.cols() &&
        std::memcmp(t.data().data(), image.data().data(), bytes) == 0)
      return i;
  }
  return std::nullopt;
}

double DeepForest::predict(const ProfileSample& sample) const {
  STAC_REQUIRE_MSG(trained(), "predict before fit");
  return cascade_.predict(sample.tabular, window_features(sample));
}

std::vector<double> DeepForest::concepts(const ProfileSample& sample) const {
  STAC_REQUIRE_MSG(trained(), "concepts before fit");
  return cascade_.concepts(sample.tabular, window_features(sample));
}

}  // namespace stac::ml
