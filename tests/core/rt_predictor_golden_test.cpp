// Golden digests of Stage-3 predictions.
//
// Every RtPrediction field is a function of the simulations the feedback
// loop runs and of the order statistics read from them.  The digests below
// were recorded from the implementation that memoized whole G/G/k results,
// sorted each one before sharing it, and simulated the collocated side on
// every feedback iteration; any change to what the predictor simulates or
// how it reads a result must leave every field, bit for bit, unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/ea_model.hpp"
#include "core/profile_library.hpp"
#include "core/rt_predictor.hpp"
#include "test_digest.hpp"

namespace stac::core {
namespace {

using profiler::Profile;
using profiler::Profiler;
using profiler::ProfilerConfig;
using profiler::RuntimeCondition;

/// Every prediction field, as bit patterns.
void put(Digest& d, const RtPrediction& p) {
  d.put(p.mean_rt);
  d.put(p.p95_rt);
  d.put(p.ea);
  d.put(p.mean_queue_delay);
  d.put(p.boosted_fraction);
  d.put(p.norm_mean_rt);
  d.put(p.norm_p95_rt);
  d.put(static_cast<std::uint8_t>(p.rung));
}

ProfilerConfig fast_config() {
  ProfilerConfig cfg;
  cfg.target_completions = 300;
  cfg.warmup_completions = 40;
  cfg.max_windows = 2;
  cfg.accesses_per_sample = 800;
  return cfg;
}

/// The fixed grid: three loads x four timeouts, asymmetric on the
/// collocated side so the two simulations of one iteration differ.
std::vector<RuntimeCondition> grid(wl::Benchmark collocated) {
  std::vector<RuntimeCondition> out;
  for (const double util : {0.45, 0.7, 0.9}) {
    for (const double timeout : {0.0, 0.5, 2.0, 6.0}) {
      RuntimeCondition c;
      c.primary = wl::Benchmark::kKmeans;
      c.collocated = collocated;
      c.util_primary = util;
      c.util_collocated = 1.3 - util;
      c.timeout_primary = timeout;
      c.timeout_collocated = 6.0 - timeout;
      c.seed = 77;
      out.push_back(c);
    }
  }
  return out;
}

/// Digest of predict() over the grid.
std::uint64_t grid_digest(const RtPredictor& pred,
                          const std::vector<RuntimeCondition>& conds) {
  Digest d;
  for (const RuntimeCondition& c : conds) put(d, pred.predict(c));
  return d.h;
}

// Recorded digests, one per feedback_iterations in {1, 2, 3}.
TEST(RtPredictorGolden, AnalyticEaGrid) {
  Profiler profiler(fast_config());
  const std::uint64_t want[3] = {0x123ee55c7ad07aa3ULL, 0x66306b8c1be11f12ULL,
                                 0x5dac98941f0df650ULL};
  for (std::size_t iters = 1; iters <= 3; ++iters) {
    RtPredictorConfig cfg;
    cfg.analytic_ea = true;
    cfg.sim_queries = 1500;
    cfg.feedback_iterations = iters;
    RtPredictor pred(profiler, nullptr, nullptr, cfg);
    EXPECT_EQ(grid_digest(pred, grid(wl::Benchmark::kBfs)), want[iters - 1])
        << iters;
  }
}

/// A learned EA reads the feedback dynamics, so each iteration's EA
/// depends on the previous iteration's primary and collocated runs.
class RtPredictorLearnedGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    profiler_ = new Profiler(fast_config());
    Rng rng(17);
    std::vector<RuntimeCondition> conditions;
    for (std::size_t i = 0; i < 10; ++i)
      conditions.push_back(random_condition(wl::Benchmark::kKmeans,
                                            wl::Benchmark::kRedis,
                                            profiler::ConditionRanges{}, rng));
    profiles_ = new std::vector<Profile>(
        profiler_->profile_conditions(conditions));
    library_ = new ProfileLibrary();
    library_->add_all(*profiles_);
  }
  static void TearDownTestSuite() {
    delete library_;
    delete profiles_;
    delete profiler_;
  }
  static Profiler* profiler_;
  static std::vector<Profile>* profiles_;
  static ProfileLibrary* library_;
};

Profiler* RtPredictorLearnedGolden::profiler_ = nullptr;
std::vector<Profile>* RtPredictorLearnedGolden::profiles_ = nullptr;
ProfileLibrary* RtPredictorLearnedGolden::library_ = nullptr;

// Recorded digests: [backend][feedback_iterations - 1].
TEST_F(RtPredictorLearnedGolden, LearnedEaGrid) {
  const EaBackend backends[2] = {EaBackend::kLinear, EaBackend::kTree};
  const std::uint64_t want[2][2] = {
      {0x5110997189783fefULL, 0xb456af3d8e50d06cULL},
      {0x4eaeff731bd55965ULL, 0x09ccefba28dbf675ULL}};
  for (int b = 0; b < 2; ++b) {
    EaModelConfig mc;
    mc.backend = backends[b];
    EaModel model(mc);
    model.fit(*profiles_);
    for (std::size_t iters = 1; iters <= 2; ++iters) {
      RtPredictorConfig cfg;
      cfg.sim_queries = 1500;
      cfg.feedback_iterations = iters;
      RtPredictor pred(*profiler_, &model, library_, cfg);
      EXPECT_EQ(grid_digest(pred, grid(wl::Benchmark::kRedis)),
                want[b][iters - 1])
          << b << " " << iters;
    }
  }
}

TEST_F(RtPredictorLearnedGolden, MeasurementModePredictions) {
  EaModelConfig mc;
  mc.backend = EaBackend::kLinear;
  EaModel model(mc);
  model.fit(*profiles_);
  RtPredictorConfig cfg;
  cfg.sim_queries = 1500;
  RtPredictor pred(*profiler_, &model, library_, cfg);
  Digest d;
  for (const Profile& p : *profiles_) put(d, pred.predict_for_profile(p));
  EXPECT_EQ(d.h, 0x0c7e58aac6af100eULL);
}

}  // namespace
}  // namespace stac::core
