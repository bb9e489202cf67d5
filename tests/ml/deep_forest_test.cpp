#include "ml/deep_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/ea_model.hpp"
#include "ml/linear_regression.hpp"
#include "obs/metrics.hpp"

namespace stac::ml {
namespace {

/// Samples with an image encoding hidden factor `h` in a spatial block and
/// a tabular part [a, b]; target = |a - h| + 0.2 b (nonlinear, image-
/// dependent).
void make_samples(std::size_t n, std::uint64_t seed,
                  std::vector<ProfileSample>& xs, std::vector<double>& ys) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(), b = rng.uniform(), h = rng.uniform();
    Matrix img(10, 8);
    for (std::size_t r = 0; r < 10; ++r)
      for (std::size_t c = 0; c < 8; ++c)
        img(r, c) = (r < 5 ? h : 0.0) + rng.normal(0.0, 0.03);
    xs.push_back(ProfileSample{std::move(img), {a, b}});
    ys.push_back(std::abs(a - h) + 0.2 * b + rng.normal(0.0, 0.01));
  }
}

DeepForestConfig small_config() {
  DeepForestConfig cfg;
  cfg.mgs.window_sizes = {4, 6};
  cfg.mgs.estimators = 10;
  cfg.cascade.levels = 2;
  cfg.cascade.estimators = 20;
  cfg.cascade.final_forests = 2;
  return cfg;
}

TEST(DeepForest, LearnsImageDependentTarget) {
  std::vector<ProfileSample> train_x, test_x;
  std::vector<double> train_y, test_y;
  make_samples(250, 1, train_x, train_y);
  make_samples(100, 2, test_x, test_y);

  DeepForest df(small_config());
  df.fit(train_x, train_y);
  EXPECT_TRUE(df.trained());
  EXPECT_TRUE(df.uses_mgs());

  double mae = 0.0;
  for (std::size_t i = 0; i < test_x.size(); ++i)
    mae += std::abs(df.predict(test_x[i]) - test_y[i]);
  mae /= static_cast<double>(test_x.size());

  // Tabular-only linear regression cannot see h: deep forest must beat it.
  Matrix x(0, 2);
  for (const auto& s : train_x) x.append_row(s.tabular);
  LinearRegression lin;
  lin.fit(Dataset(std::move(x), train_y));
  double lin_mae = 0.0;
  for (std::size_t i = 0; i < test_x.size(); ++i)
    lin_mae += std::abs(lin.predict(test_x[i].tabular) - test_y[i]);
  lin_mae /= static_cast<double>(test_x.size());

  EXPECT_LT(mae, lin_mae);
  EXPECT_LT(mae, 0.2);
}

TEST(DeepForest, TabularOnlyModeSkipsMgs) {
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  Rng rng(3);
  for (int i = 0; i < 150; ++i) {
    const double a = rng.uniform(), b = rng.uniform();
    xs.push_back(ProfileSample{Matrix{}, {a, b}});
    ys.push_back(a * b);
  }
  DeepForest df(small_config());
  df.fit(xs, ys);
  EXPECT_FALSE(df.uses_mgs());
  EXPECT_NEAR(df.predict(ProfileSample{Matrix{}, {0.9, 0.9}}), 0.81, 0.2);
}

TEST(DeepForest, ConceptsExposedForClustering) {
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  make_samples(120, 4, xs, ys);
  DeepForest df(small_config());
  df.fit(xs, ys);
  const auto concepts = df.concepts(xs[0]);
  EXPECT_EQ(concepts.size(), 2u * 4u);  // levels x forests_per_level
}

TEST(DeepForest, MixedImagePresenceThrows) {
  DeepForest df(small_config());
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  make_samples(50, 5, xs, ys);
  df.fit(xs, ys);
  EXPECT_THROW((void)df.predict(ProfileSample{Matrix{}, {0.5, 0.5}}),
               ContractViolation);
}

TEST(DeepForest, TabularWidthMismatchThrows) {
  DeepForest df(small_config());
  std::vector<ProfileSample> xs{ProfileSample{Matrix{}, {1.0, 2.0}},
                                ProfileSample{Matrix{}, {1.0}}};
  std::vector<double> ys{0.0, 1.0};
  EXPECT_THROW((void)df.fit(xs, ys), ContractViolation);
}

TEST(DeepForest, PredictBeforeFitThrows) {
  DeepForest df;
  EXPECT_THROW((void)df.predict(ProfileSample{}), ContractViolation);
}

// ---- PR-9: warm-start refit through the MGS + cascade stack ---------------

TEST(DeepForest, WarmRefitParityWithColdFit) {
  std::vector<ProfileSample> xs, test_x;
  std::vector<double> ys, test_y;
  make_samples(220, 31, xs, ys);
  make_samples(90, 32, test_x, test_y);

  std::vector<ProfileSample> base_x(xs.begin(), xs.begin() + 170);
  std::vector<double> base_y(ys.begin(), ys.begin() + 170);
  DeepForest warm(small_config());
  warm.fit(base_x, base_y);
  // Only the appended samples pass through the scanner on refit; the old
  // rows' window features and concepts are reused as cached.
  warm.refit_incremental(xs, ys);

  DeepForest cold(small_config());
  cold.fit(xs, ys);
  auto mae = [&](const DeepForest& df) {
    double m = 0.0;
    for (std::size_t i = 0; i < test_x.size(); ++i)
      m += std::abs(df.predict(test_x[i]) - test_y[i]);
    return m / static_cast<double>(test_x.size());
  };
  EXPECT_LE(mae(warm), mae(cold) + 0.03);
}

TEST(DeepForest, RefitContractValidation) {
  DeepForest df(small_config());
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  make_samples(60, 35, xs, ys);
  EXPECT_THROW(df.refit_incremental(xs, ys), ContractViolation);
  df.fit(xs, ys);
  std::vector<ProfileSample> fewer(xs.begin(), xs.begin() + 10);
  std::vector<double> fewer_y(ys.begin(), ys.begin() + 10);
  EXPECT_THROW(df.refit_incremental(fewer, fewer_y), ContractViolation);
}

// ---- training-image reuse vs an independent scan-everything oracle --------

/// The scanner and cascade DeepForest::fit builds, assembled from the public
/// parts with the same configs, seeds and images — but every prediction
/// scans its image through MultiGrainScanner::transform.
class ScanOracle {
 public:
  ScanOracle(const DeepForestConfig& cfg,
             const std::vector<ProfileSample>& samples,
             const std::vector<double>& targets)
      : scanner_(cfg.mgs), cascade_(cfg.cascade) {
    std::vector<Matrix> images;
    for (const auto& s : samples) images.push_back(s.image);
    scanner_.fit(images, targets);
    for (std::size_t g = 0; g < scanner_.grain_count(); ++g)
      blocks_.emplace_back(0, scanner_.feature_count(g));
    append_blocks(samples, 0);
    cascade_.fit(base(samples, targets), blocks_);
  }

  /// Mirrors DeepForest::refit_incremental: the scanner stays fixed.
  void refit_incremental(const std::vector<ProfileSample>& samples,
                         const std::vector<double>& targets) {
    append_blocks(samples, blocks_.front().rows());
    cascade_.refit_incremental(base(samples, targets), blocks_);
  }

  [[nodiscard]] double predict(const ProfileSample& s) const {
    return cascade_.predict(s.tabular, scanner_.transform(s.image));
  }
  [[nodiscard]] std::vector<double> concepts(const ProfileSample& s) const {
    return cascade_.concepts(s.tabular, scanner_.transform(s.image));
  }

 private:
  void append_blocks(const std::vector<ProfileSample>& samples,
                     std::size_t from) {
    for (std::size_t i = from; i < samples.size(); ++i) {
      const auto feats = scanner_.transform(samples[i].image);
      for (std::size_t g = 0; g < feats.size(); ++g)
        blocks_[g].append_row(feats[g]);
    }
  }
  static Dataset base(const std::vector<ProfileSample>& samples,
                      const std::vector<double>& targets) {
    Matrix x(0, samples.front().tabular.size());
    for (const auto& s : samples) x.append_row(s.tabular);
    return Dataset(std::move(x), targets);
  }

  MultiGrainScanner scanner_;
  CascadeForest cascade_;
  std::vector<Matrix> blocks_;
};

struct ScanCounts {
  std::uint64_t reused = 0;
  std::uint64_t scanned = 0;
};

/// The ml.mgs_reused / ml.mgs_scanned counts `fn` adds (obs on meanwhile).
template <class Fn>
ScanCounts count_scans(Fn&& fn) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto& reg = obs::MetricsRegistry::global();
  const ScanCounts before{reg.counter_value("ml.mgs_reused"),
                          reg.counter_value("ml.mgs_scanned")};
  fn();
  obs::set_enabled(was_enabled);
  return {reg.counter_value("ml.mgs_reused") - before.reused,
          reg.counter_value("ml.mgs_scanned") - before.scanned};
}

/// Predictions and concepts bit-equal to the oracle's for every sample.
template <class Model, class Oracle>
void expect_bit_equal(const Model& model, const Oracle& oracle,
                      const std::vector<ProfileSample>& samples) {
  for (std::size_t i = 0; i < samples.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(model.predict(samples[i])),
              std::bit_cast<std::uint64_t>(oracle.predict(samples[i])));
    const auto got = model.concepts(samples[i]);
    const auto want = oracle.concepts(samples[i]);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want[k]));
  }
}

TEST(DeepForest, TrainingImagesReuseFeaturesBitEqualToScanOracle) {
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  make_samples(90, 41, xs, ys);
  DeepForest df(small_config());
  df.fit(xs, ys);
  const ScanOracle oracle(small_config(), xs, ys);

  const ScanCounts c = count_scans([&] { expect_bit_equal(df, oracle, xs); });
  // predict + concepts per sample, each answered from the training rows.
  EXPECT_EQ(c.reused, 2 * xs.size());
  EXPECT_EQ(c.scanned, 0u);
}

TEST(DeepForest, HeldOutImagesScanBitEqualToScanOracle) {
  std::vector<ProfileSample> xs, held;
  std::vector<double> ys, held_y;
  make_samples(90, 42, xs, ys);
  make_samples(20, 43, held, held_y);
  DeepForest df(small_config());
  df.fit(xs, ys);
  const ScanOracle oracle(small_config(), xs, ys);

  const ScanCounts c =
      count_scans([&] { expect_bit_equal(df, oracle, held); });
  EXPECT_EQ(c.reused, 0u);
  EXPECT_EQ(c.scanned, 2 * held.size());
}

TEST(DeepForest, NearTrainingImagesMissTheReuseLookup) {
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  make_samples(90, 44, xs, ys);
  xs[3].image(9, 7) = 0.0;  // a +0.0 to flip below
  DeepForest df(small_config());
  df.fit(xs, ys);
  const ScanOracle oracle(small_config(), xs, ys);

  ProfileSample one_changed = xs[5];
  one_changed.image(2, 3) =
      std::nextafter(one_changed.image(2, 3), 1.0);  // last bit only
  ProfileSample signed_zero = xs[3];
  signed_zero.image(9, 7) = -0.0;  // == +0.0, but not the same bits
  const std::vector<ProfileSample> near{one_changed, signed_zero};

  const ScanCounts c =
      count_scans([&] { expect_bit_equal(df, oracle, near); });
  EXPECT_EQ(c.reused, 0u);
  EXPECT_EQ(c.scanned, 2 * near.size());
}

TEST(DeepForest, RefitAppendedRowsReuseBitEqualToScanOracle) {
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  make_samples(110, 45, xs, ys);
  const std::vector<ProfileSample> base_x(xs.begin(), xs.begin() + 80);
  const std::vector<double> base_y(ys.begin(), ys.begin() + 80);
  DeepForest df(small_config());
  df.fit(base_x, base_y);
  df.refit_incremental(xs, ys);
  ScanOracle oracle(small_config(), base_x, base_y);
  oracle.refit_incremental(xs, ys);

  const ScanCounts c = count_scans([&] { expect_bit_equal(df, oracle, xs); });
  EXPECT_EQ(c.reused, 2 * xs.size());  // old and appended rows alike
  EXPECT_EQ(c.scanned, 0u);
}

/// Hand-built profiles around make_samples' images; the tabular part
/// becomes statics [a, b] and the target the (clamped) EA.
std::vector<profiler::Profile> make_profiles(std::size_t n,
                                             std::uint64_t seed) {
  std::vector<ProfileSample> xs;
  std::vector<double> ys;
  make_samples(n, seed, xs, ys);
  std::vector<profiler::Profile> profiles(n);
  for (std::size_t i = 0; i < n; ++i) {
    profiles[i].image = xs[i].image;
    profiles[i].statics = xs[i].tabular;
    profiles[i].ea_boost = std::clamp(ys[i], 0.05, 1.0);
  }
  return profiles;
}

/// EaModel's view of the oracle: the same samples and the same clamp.
struct EaScanOracle {
  const ScanOracle& oracle;
  [[nodiscard]] double predict(const ProfileSample& s) const {
    return std::clamp(oracle.predict(s), 1e-3, 1.0);
  }
  [[nodiscard]] std::vector<double> concepts(const ProfileSample& s) const {
    return oracle.concepts(s);
  }
};

void expect_ea_model_matches_oracle(bool shuffle_rows) {
  const auto profiles = make_profiles(90, shuffle_rows ? 47 : 46);
  core::EaModelConfig cfg;
  cfg.deep_forest = small_config();
  cfg.shuffle_counter_rows = shuffle_rows;
  core::EaModel trained(cfg);
  trained.fit(profiles);
  const core::EaModel copy(trained);  // what each ServingModel bundle holds

  std::vector<ProfileSample> samples;
  std::vector<double> targets;
  for (const auto& p : profiles) {
    samples.push_back(copy.make_sample(p));
    targets.push_back(p.ea_boost);
  }
  const ScanOracle oracle(small_config(), samples, targets);
  const EaScanOracle ea_oracle{oracle};

  const ScanCounts c =
      count_scans([&] { expect_bit_equal(copy, ea_oracle, samples); });
  EXPECT_EQ(c.reused, 2 * samples.size());
  EXPECT_EQ(c.scanned, 0u);
}

TEST(DeepForest, CopiedEaModelReusesBitEqualToScanOracle) {
  expect_ea_model_matches_oracle(/*shuffle_rows=*/false);
}

TEST(DeepForest, ShuffledRowsAblationReusesBitEqualToScanOracle) {
  expect_ea_model_matches_oracle(/*shuffle_rows=*/true);
}

}  // namespace
}  // namespace stac::ml
