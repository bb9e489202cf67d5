// EA-mode knob (DESIGN.md §16): kMissRatio must reproduce the historical
// labels bit-for-bit, kModeledTime must produce sane time-derived labels
// from the timing-accurate hierarchy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "cachesim/perf_counters.hpp"
#include "obs/metrics.hpp"
#include "profiler/profiler.hpp"

namespace stac::profiler {
namespace {

ProfilerConfig fast_config() {
  ProfilerConfig cfg;
  cfg.target_completions = 400;
  cfg.warmup_completions = 50;
  cfg.max_windows = 2;
  cfg.accesses_per_sample = 1500;
  return cfg;
}

RuntimeCondition sample_condition() {
  RuntimeCondition c;
  c.primary = wl::Benchmark::kKmeans;
  c.collocated = wl::Benchmark::kBfs;
  c.util_primary = 0.7;
  c.util_collocated = 0.6;
  c.timeout_primary = 1.0;
  c.timeout_collocated = 2.0;
  c.seed = 9;
  return c;
}

TEST(EaMode, DefaultIsMissRatio) {
  EXPECT_EQ(ProfilerConfig{}.ea_mode, EaMode::kMissRatio);
}

// The knob's backwards-compatibility contract: an explicitly-set kMissRatio
// profiler is indistinguishable from a default one — same EA, same images,
// same ground-truth RT, bitwise.
TEST(EaMode, MissRatioIsBitIdenticalToDefault) {
  ProfilerConfig explicit_cfg = fast_config();
  explicit_cfg.ea_mode = EaMode::kMissRatio;
  const Profiler defaulted(fast_config());
  const Profiler explicited(explicit_cfg);
  const auto a = defaulted.profile_condition(sample_condition());
  const auto b = explicited.profile_condition(sample_condition());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ea, b[i].ea);
    EXPECT_EQ(a[i].ea_boost, b[i].ea_boost);
    EXPECT_EQ(a[i].mean_rt, b[i].mean_rt);
    EXPECT_EQ(a[i].p95_rt, b[i].p95_rt);
    ASSERT_EQ(a[i].image.rows(), b[i].image.rows());
    ASSERT_EQ(a[i].image.cols(), b[i].image.cols());
    for (std::size_t r = 0; r < a[i].image.rows(); ++r)
      for (std::size_t c = 0; c < a[i].image.cols(); ++c)
        ASSERT_EQ(a[i].image(r, c), b[i].image(r, c));
  }
}

TEST(EaMode, ModeledTimeProducesFiniteLabels) {
  ProfilerConfig cfg = fast_config();
  cfg.ea_mode = EaMode::kModeledTime;
  const Profiler profiler(cfg);
  const auto profiles = profiler.profile_condition(sample_condition());
  ASSERT_GE(profiles.size(), 1u);
  for (const auto& p : profiles) {
    EXPECT_TRUE(std::isfinite(p.ea));
    EXPECT_GT(p.ea, 0.0);
    EXPECT_LE(p.ea, 1.0);
    EXPECT_TRUE(std::isfinite(p.ea_boost));
    EXPECT_GT(p.ea_boost, 0.0);
    EXPECT_LE(p.ea_boost, 1.0);
    // Image generation is mode-independent: same shape either way.
    EXPECT_EQ(p.image.rows(), 2 * cachesim::kCounterCount);
    EXPECT_EQ(p.image.cols(), cfg.image_cols);
    EXPECT_GT(p.mean_rt, 0.0);
  }
}

TEST(EaMode, ModeledTimeImagesMatchMissRatioImages) {
  // The EA mode only changes the label source — the counter images fed to
  // the models must be bit-identical across modes.
  ProfilerConfig time_cfg = fast_config();
  time_cfg.ea_mode = EaMode::kModeledTime;
  const Profiler by_ratio(fast_config());
  const Profiler by_time(time_cfg);
  const auto a = by_ratio.profile_condition(sample_condition());
  const auto b = by_time.profile_condition(sample_condition());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t r = 0; r < a[i].image.rows(); ++r)
      for (std::size_t c = 0; c < a[i].image.cols(); ++c)
        ASSERT_EQ(a[i].image(r, c), b[i].image(r, c));
    // Ground truth comes from the same testbed runs in both modes.
    EXPECT_EQ(a[i].mean_rt, b[i].mean_rt);
    EXPECT_EQ(a[i].mean_rt_default, b[i].mean_rt_default);
  }
}

// Characterises the mode as it stands: the never-boost and always-boost
// reference runs are not traced, so their cycles per access are 0 and every
// condition keeps the service-duration labels.  Tracing the reference runs
// changes every modeled-time label and must update this test on purpose.
TEST(EaMode, ModeledTimeFallsBackWithoutReferenceTraces) {
  ProfilerConfig time_cfg = fast_config();
  time_cfg.ea_mode = EaMode::kModeledTime;
  const Profiler by_ratio(fast_config());
  const Profiler by_time(time_cfg);
  const std::vector<RuntimeCondition> conditions = {
      sample_condition(), sample_condition().swapped()};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  for (const RuntimeCondition& c : conditions) {
    const auto a = by_ratio.profile_condition(c);
    const auto b = by_time.profile_condition(c);
    ASSERT_GE(a.size(), 1u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].ea),
                std::bit_cast<std::uint64_t>(b[i].ea));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].ea_boost),
                std::bit_cast<std::uint64_t>(b[i].ea_boost));
    }
  }
  EXPECT_EQ(metrics.counter_value("profiler.ea_modeled_time_fallback"),
            conditions.size());
  metrics.reset();
  obs::set_enabled(was_enabled);
}

TEST(EaMode, ModeledCyclesPerAccessPositiveOnRealTrace) {
  ProfilerConfig cfg = fast_config();
  const Profiler profiler(cfg);
  const RuntimeCondition cond = sample_condition();
  std::vector<std::unique_ptr<wl::WorkloadModel>> owned;
  queueing::TestbedConfig tb = profiler.make_testbed_config(
      cond, cond.timeout_primary, cond.timeout_collocated, owned);
  // Tracing is opt-in: without a sample interval the trace stays empty and
  // modeled_cycles_per_access correctly reports 0.
  queueing::Testbed untraced(tb);
  EXPECT_EQ(profiler.modeled_cycles_per_access(untraced.run(), cond), 0.0);
  tb.sample_interval =
      profiler.pair_scales(cond.primary, cond.collocated).scaled_base_primary;
  queueing::Testbed testbed(tb);
  const queueing::TestbedResult result = testbed.run();
  const double cpa = profiler.modeled_cycles_per_access(result, cond);
  EXPECT_TRUE(std::isfinite(cpa));
  EXPECT_GT(cpa, 0.0);
  // Cycles per access are bounded below by the L1 latency and above by the
  // scaled hierarchy's worst-case miss chain.
  EXPECT_LT(cpa, 1000.0);
}

}  // namespace
}  // namespace stac::profiler
