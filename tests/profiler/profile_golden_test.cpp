// Golden digest of Stage-1 profiles.
//
// Every Profile field a model trains on or a test scores against is a
// function of the three testbed runs of a condition and of the counter
// replay of the policy trace.  The digest below was recorded from the
// implementation that, in the modeled-time EA mode, replayed the policy
// trace for cycles per access before reading the reference runs; any change
// to what the profiler runs or replays must leave every field, bit for bit,
// unchanged, in both EA modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cachesim/cache_config.hpp"
#include "obs/metrics.hpp"
#include "profiler/profiler.hpp"
#include "test_digest.hpp"

namespace stac::profiler {
namespace {

/// One profiler shape and the conditions it profiles.
struct Case {
  cachesim::HierarchyConfig hw;
  std::vector<RuntimeCondition> conditions;
};

ProfilerConfig golden_config(const cachesim::HierarchyConfig& hw,
                             EaMode mode) {
  ProfilerConfig cfg;
  cfg.hw = hw;
  cfg.ea_mode = mode;
  cfg.target_completions = 300;
  cfg.warmup_completions = 40;
  cfg.max_windows = 1;
  cfg.accesses_per_sample = 1000;
  return cfg;
}

/// Two loads per pairing in both directions, plus one condition sampled
/// so sparsely, and run so briefly, that its trace is too short to render
/// an image.  `a` is the slower service: sampled relative to the faster
/// one, the sparse trace would be long enough to render.
std::vector<RuntimeCondition> conditions(wl::Benchmark a, wl::Benchmark b) {
  std::vector<RuntimeCondition> out;
  for (const double util : {0.45, 0.85}) {
    RuntimeCondition c;
    c.primary = a;
    c.collocated = b;
    c.util_primary = util;
    c.util_collocated = 1.3 - util;
    c.timeout_primary = util < 0.5 ? 0.5 : 3.0;
    c.timeout_collocated = 6.0 - c.timeout_primary;
    c.seed = 31;
    out.push_back(c);
    out.push_back(c.swapped());
  }
  RuntimeCondition sparse;
  sparse.primary = a;
  sparse.collocated = b;
  sparse.util_primary = 0.95;
  sparse.util_collocated = 0.95;
  sparse.sampling_rel = 0.1;
  sparse.seed = 32;
  out.push_back(sparse);
  return out;
}

std::vector<Case> cases() {
  return {{cachesim::presets::xeon_e5_2683(),
           conditions(wl::Benchmark::kKmeans, wl::Benchmark::kRedis)},
          {cachesim::presets::sapphire_rapids_48mb(),
           conditions(wl::Benchmark::kBfs, wl::Benchmark::kSpstream)}};
}

void put(Digest& d, const Profile& p) {
  d.put(p.image.rows());
  d.put(p.image.cols());
  for (std::size_t r = 0; r < p.image.rows(); ++r)
    for (std::size_t c = 0; c < p.image.cols(); ++c) d.put(p.image(r, c));
  d.put(p.ea);
  d.put(p.ea_boost);
  d.put_doubles(p.dynamics);
  d.put(p.mean_rt);
  d.put(p.p95_rt);
  d.put(p.mean_rt_default);
  d.put(p.p95_rt_default);
}

TEST(ProfileGolden, OutputsPinnedInBothEaModes) {
  Digest d;
  std::size_t rendered = 0, empty = 0;
  for (const EaMode mode : {EaMode::kMissRatio, EaMode::kModeledTime}) {
    for (const Case& k : cases()) {
      const Profiler profiler(golden_config(k.hw, mode));
      for (const RuntimeCondition& c : k.conditions) {
        const std::vector<Profile> profiles = profiler.profile_condition(c);
        d.put(profiles.size());
        for (const Profile& p : profiles) put(d, p);
        (profiles.empty() ? empty : rendered) += 1;
      }
    }
  }
  // The sparse condition of each pairing renders nothing, in each mode.
  EXPECT_EQ(empty, 4u);
  EXPECT_EQ(rendered, 16u);
  EXPECT_EQ(d.h, 0xef6c0357f797d4dbULL);
}

// A counter replay runs only for a rendered image: the modeled-time mode
// replays no trace whose result it does not read.
TEST(ProfileGolden, OneReplayPerRenderedImage) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& metrics = obs::MetricsRegistry::global();
  for (const EaMode mode : {EaMode::kMissRatio, EaMode::kModeledTime}) {
    for (const Case& k : cases()) {
      const Profiler profiler(golden_config(k.hw, mode));
      for (const RuntimeCondition& c : k.conditions) {
        metrics.reset();
        const std::vector<Profile> profiles = profiler.profile_condition(c);
        EXPECT_EQ(metrics.counter_value("profiler.replays"), profiles.size())
            << c.to_string();
      }
    }
  }
  metrics.reset();
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace stac::profiler
