// Stage 3 wiring (§3.3): EA model + G/G/k simulator + feedback loop.
//
// To predict response time for an unseen (condition, policy):
//   1. fetch the nearest training profile's counter image and dynamics as
//      the starting point (ProfileLibrary — training data only);
//   2. predict EA with the Stage-2 model;
//   3. run the G/G/k simulator with the policy timeout and the predicted
//      EA-scaled boost rate;
//   4. feed the simulator's instantaneous queueing delay and boost
//      fraction back into the dynamic condition features and repeat —
//      "the instantaneous queuing delay is outputted as dynamic condition
//      feedback for future simulations".
#pragma once

#include <limits>

#include "core/ea_model.hpp"
#include "core/profile_library.hpp"
#include "core/rt_prediction_cache.hpp"
#include "queueing/ggk_simulator.hpp"

namespace stac::core {

/// The EA-source degradation ladder (most→least capable).  Every EA query
/// tries the rungs in order and records the first that answered; a fault in
/// the deep-forest model (stale model, injected "model.predict" failure)
/// drops the prediction one rung instead of killing the pipeline.
enum class DegradationRung : std::uint8_t {
  kPrimaryModel = 0,    ///< the configured (deep-forest) EA model
  kLinearFallback = 1,  ///< cheap linear-regression EA trained alongside
  kNearestNeighbor = 2, ///< profile-library nearest-neighbour EA lookup
  kConservative = 3,    ///< static allocation: boosts assumed to buy nothing
};

[[nodiscard]] const char* degradation_rung_name(DegradationRung rung);

struct RtPrediction {
  double mean_rt = 0.0;  ///< in the pairing's scaled time units
  double p95_rt = 0.0;
  double ea = 0.0;
  double mean_queue_delay = 0.0;
  double boosted_fraction = 0.0;
  /// Normalized by the primary's scaled base service time (scale-free).
  double norm_mean_rt = 0.0;
  double norm_p95_rt = 0.0;
  /// Worst (deepest) ladder rung any EA query of this prediction fell to.
  DegradationRung rung = DegradationRung::kPrimaryModel;
};

struct RtPredictorConfig {
  std::size_t feedback_iterations = 2;
  std::size_t sim_queries = 6000;
  std::size_t sim_warmup = 300;
  /// Library profiles averaged per exploration-mode EA query.
  std::size_t ea_neighbors = 5;
  /// EA source when no learned model is attached (the Fig. 6 "Queue Model"
  /// comparator): contention-blind analytic EA from the solo speedup.
  bool analytic_ea = false;
  /// Memoize Stage-3 simulations in an RtPredictionCache keyed on the
  /// bit-exact GGkConfig (DESIGN.md §10).  The simulator is deterministic,
  /// so a hit returns exactly what a fresh run would; chaos runs bypass the
  /// cache automatically.  false = always re-simulate.
  bool memoize = true;
  /// Max entries the memo cache may hold before its epoch flush — bounds
  /// the memory of a long-running controller that re-plans every epoch
  /// over drifting conditions (current size exported as the
  /// "rt_cache.size" obs gauge).
  std::size_t memoize_capacity = 4096;
  std::uint64_t seed = 2024;
};

/// Concurrency: predict() and predict_for_profile() are const, keep all
/// mutable state (simulators, RNGs, feedback dynamics) on the stack, and
/// derive every seed from the config — the grid-parallel policy explorer
/// calls them from many pool workers at once.  The referenced profiler,
/// models and library must not be mutated while predictions are in flight.
class RtPredictor {
 public:
  /// At least one EA source is required: a trained `model`, a trained
  /// fallback (set_fallback_model), a non-empty `library`, or
  /// config.analytic_ea.  `model` may be null when another source exists —
  /// predictions then start lower on the degradation ladder.
  RtPredictor(const profiler::Profiler& profiler, const EaModel* model,
              const ProfileLibrary* library, RtPredictorConfig config = {});

  /// Attach the linear-regression fallback model (ladder rung 1).  Null
  /// detaches.  The pointer must outlive the predictor.
  void set_fallback_model(const EaModel* fallback) { fallback_ = fallback; }

  /// Exploration-mode prediction for a *hypothetical* condition: the
  /// counter image is borrowed from the nearest training profile and the
  /// dynamic conditions come from simulation feedback (§3.3).  Used by the
  /// policy explorer, where no measurement of the condition exists.
  [[nodiscard]] RtPrediction predict(
      const profiler::RuntimeCondition& condition) const;

  /// Which ladder rung answers for `condition` right now: one EA query
  /// seeded with the same initial dynamics predict() starts from — no
  /// simulation, no feedback loop.  The serving controller's health check
  /// (DESIGN.md §13): rung availability is model state, not query state,
  /// so this equals predict(condition).rung whenever availability is
  /// stable across one prediction's EA queries.
  [[nodiscard]] DegradationRung probe_rung(
      const profiler::RuntimeCondition& condition) const;

  /// Measurement-mode prediction for a profiled condition (the Fig. 6
  /// protocol): the profile's own counter image and dynamic conditions are
  /// model *inputs* — the paper only forbids using the observed profile
  /// "to train".  Response time remains strictly an output of the Stage-3
  /// simulator.
  [[nodiscard]] RtPrediction predict_for_profile(
      const profiler::Profile& profile) const;

  /// Simulation-memoization counters for this predictor (sweeps report the
  /// hit rate; see bench_sim_core).  Zeros when `memoize` is off.
  [[nodiscard]] RtPredictionCache::Stats cache_stats() const {
    return sim_cache_.stats();
  }

  /// Current memo-cache entry count (bounded by config.memoize_capacity).
  [[nodiscard]] std::size_t cache_size() const { return sim_cache_.size(); }

 private:
  struct EaQuery {
    double ea = 0.0;
    DegradationRung rung = DegradationRung::kPrimaryModel;
  };
  /// `neighbor_cap` bounds the library neighbours averaged on the learned
  /// rungs (probe_rung passes 1 — the rung does not depend on the average;
  /// predictions use the config value).
  [[nodiscard]] EaQuery ea_for(
      const profiler::RuntimeCondition& condition,
      const std::vector<double>& dynamics,
      std::size_t neighbor_cap =
          std::numeric_limits<std::size_t>::max()) const;
  /// Rung-2 EA: average ea_boost over the library's nearest profiles.
  [[nodiscard]] double neighbor_ea(
      const profiler::RuntimeCondition& condition) const;
  /// Rung-3 EA: boost-neutral ("static allocation") — the boosted rate
  /// equals the default rate, so a wrong model can never promise speedup.
  [[nodiscard]] double conservative_ea() const;

  const profiler::Profiler& profiler_;
  const EaModel* model_;
  const EaModel* fallback_ = nullptr;
  const ProfileLibrary* library_;
  RtPredictorConfig config_;
  /// Internally synchronized; mutable so the const, pool-shared predict
  /// paths can memoize through it.
  mutable RtPredictionCache sim_cache_;
};

}  // namespace stac::core
