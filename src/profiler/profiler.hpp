// Stage 1: profiling (§3.1, §4).
//
// For each runtime condition the profiler
//   1. runs the collocated pair on the ground-truth testbed under the
//      condition's STAP timeouts, with the trace hook sampling dynamic
//      state at the condition's sampling rate;
//   2. runs the same pair, same seed, under never-boost defaults;
//   3. computes effective cache allocation (Eq. 3) from the two runs;
//   4. replays the dynamic trace through the (scaled) cache simulator with
//      CAT masks following the recorded boost states, producing the 29
//      hardware counters per service per sample — the profile "image"
//      (Eq. 2's <static, dynamic, query_0..query_N> vector, 2-D); and
//   5. splits long traces into several windows, each its own training row
//      (the paper's trick for growing N under limited profiling time).
//
// Service-time normalization: conditions are all relative to service time
// (Table 2), so the testbed runs each pairing in normalized units with the
// native timescale ratio compressed to at most `max_pair_ratio` (see
// DESIGN.md — an 81 s Spark job next to a 1 ms Redis query cannot be
// discrete-event simulated at natural scale).
#pragma once

#include <vector>

#include "cachesim/cache_config.hpp"
#include "cat/allocation_plan.hpp"
#include "ml/dataset.hpp"
#include "profiler/runtime_condition.hpp"
#include "queueing/testbed.hpp"
#include "wl/benchmark_suite.hpp"

namespace stac::profiler {

/// How EA labels (Eq. 3) are computed (DESIGN.md §16).
///   * kMissRatio — from testbed service durations, exactly as before this
///     knob existed.  Bit-identical to the historical pipeline.
///   * kModeledTime — from the timing-accurate hierarchy: replay the
///     policy/default/boosted traces through the (scaled) simulator and
///     take modeled memory cycles per access as the service-time proxy, so
///     EA reflects contended memory *time* rather than a miss-count proxy.
enum class EaMode : std::uint8_t { kMissRatio = 0, kModeledTime };

struct ProfilerConfig {
  cachesim::HierarchyConfig hw = cachesim::presets::xeon_e5_2683();
  /// Counter-image generation runs on a 1/`counter_scale` replica of the
  /// hierarchy (same way count; working sets scaled identically so miss
  /// ratios are preserved).  Must be a power of two.
  double counter_scale = 16.0;
  std::uint32_t private_ways = 1;
  std::uint32_t shared_ways = 2;
  std::size_t servers = 2;
  std::size_t image_cols = 20;   ///< time samples per profile image
  std::size_t max_windows = 3;   ///< profile rows per condition
  std::size_t target_completions = 1200;
  std::size_t warmup_completions = 100;
  std::size_t accesses_per_sample = 4000;
  double max_pair_ratio = 20.0;
  double occupancy_response = 2.0;
  /// EA label source; kMissRatio reproduces today's labels exactly.
  EaMode ea_mode = EaMode::kMissRatio;
};

/// One profile row (Eq. 2): image + condition features + measured outputs.
struct Profile {
  RuntimeCondition condition;
  Matrix image;                  ///< (2 x 29 counters) x image_cols
  std::vector<double> statics;   ///< static condition features
  std::vector<double> dynamics;  ///< per-window dynamic features
  /// Effective allocation of the condition's own policy (Eq. 3) — the
  /// quantity reported and clustered on.
  double ea = 0.0;
  /// Effective allocation at the always-boost counterpart (primary timeout
  /// 0, same seed/neighbour): the *potential* capacity-conversion
  /// efficiency under this contention environment.  This is the Stage-2
  /// learning target — the Stage-3 simulator needs the boosted-phase
  /// speedup (ea_boost x allocation ratio), not the prevalence-diluted
  /// policy EA.
  double ea_boost = 0.0;
  double mean_rt = 0.0;          ///< ground truth under the policy (scaled)
  double p95_rt = 0.0;
  double mean_rt_default = 0.0;  ///< ground truth under never-boost
  double p95_rt_default = 0.0;
  double mean_service = 0.0;     ///< mean service duration under policy
  double scaled_base_primary = 0.0;
  double allocation_ratio = 1.0;

  /// Response time normalized by the workload's scaled base service time
  /// (the scale-free quantity models predict).
  [[nodiscard]] double norm_mean_rt() const {
    return mean_rt / scaled_base_primary;
  }
  [[nodiscard]] double norm_p95_rt() const {
    return p95_rt / scaled_base_primary;
  }
};

class Profiler {
 public:
  explicit Profiler(ProfilerConfig config = {});

  [[nodiscard]] const ProfilerConfig& config() const { return config_; }
  [[nodiscard]] const cat::AllocationPlan& plan() const { return plan_; }
  [[nodiscard]] const wl::WorkloadModel& model(wl::Benchmark b) const;

  /// Profile one condition; returns up to max_windows rows (same EA/RT,
  /// different windows).
  [[nodiscard]] std::vector<Profile> profile_condition(
      const RuntimeCondition& condition) const;

  /// Parallel batch over conditions.
  [[nodiscard]] std::vector<Profile> profile_conditions(
      const std::vector<RuntimeCondition>& conditions) const;

  /// Testbed configuration for a condition with explicit timeouts (used by
  /// the policy baselines and the evaluation harnesses too).  Conditions
  /// with a non-unit query mix need per-condition workload models; they are
  /// placed in `owned_models`, whose lifetime must cover the Testbed's.
  [[nodiscard]] queueing::TestbedConfig make_testbed_config(
      const RuntimeCondition& condition, double timeout_primary,
      double timeout_collocated,
      std::vector<std::unique_ptr<wl::WorkloadModel>>& owned_models) const;

  /// Workload model with the condition's query-mix scaling applied (mix
  /// scales the hot working sets; 1.0 returns the canonical calibration).
  [[nodiscard]] wl::WorkloadModel make_mixed_model(wl::Benchmark b,
                                                   double mix) const;

  /// Convert to an ML sample.  `shuffle_rows` destroys the grouped counter
  /// ordering (the Fig. 7c spatial-locality ablation).
  [[nodiscard]] static ml::ProfileSample to_sample(const Profile& profile,
                                                   bool shuffle_rows = false,
                                                   std::uint64_t shuffle_seed = 1);

  /// Per-workload time scales for a pairing (ratio-capped normalization).
  struct PairScales {
    double scale_primary = 1.0;
    double scale_collocated = 1.0;
    double scaled_base_primary = 1.0;
    double scaled_base_collocated = 1.0;
  };
  [[nodiscard]] PairScales pair_scales(wl::Benchmark primary,
                                       wl::Benchmark collocated) const;

  /// Static feature vector for a condition (also used at inference time).
  [[nodiscard]] std::vector<double> static_features(
      const RuntimeCondition& condition) const;
  [[nodiscard]] static std::vector<std::string> static_feature_names();
  [[nodiscard]] static std::vector<std::string> dynamic_feature_names();

  /// Modeled memory cycles per access of the primary service over the
  /// steady-state tail of `result`'s trace (the kModeledTime EA input).
  /// Returns 0, without replaying, when the trace is too short to replay.
  [[nodiscard]] double modeled_cycles_per_access(
      const queueing::TestbedResult& result,
      const RuntimeCondition& condition) const;

 private:
  /// Shared trace-replay core: drives the scaled hierarchy over trace
  /// columns [col_begin, col_begin + cols) with CAT masks tracking the
  /// recorded boost states; fills `image` (2 x 29 x cols counter deltas)
  /// when non-null and returns the primary's modeled cycles per access
  /// accumulated after warmup.  Each call counts in `profiler.replays`.
  double replay_columns(const queueing::TestbedResult& result,
                        std::size_t col_begin, std::size_t cols,
                        const RuntimeCondition& condition,
                        Matrix* image) const;
  [[nodiscard]] Matrix render_image(
      const queueing::TestbedResult& result, std::size_t col_begin,
      std::size_t cols, const RuntimeCondition& condition) const;

  ProfilerConfig config_;
  cat::AllocationPlan plan_;
  std::vector<wl::WorkloadModel> models_;        ///< full-size, per benchmark
  std::vector<wl::WorkloadSpec> scaled_specs_;   ///< counter-scale replicas
  cachesim::HierarchyConfig scaled_hw_;
};

}  // namespace stac::profiler
