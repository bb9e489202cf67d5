// Stage-3 first-principles model: a G/G/k queueing simulator whose service
// rate switches when the short-term allocation timeout fires (§3.3).
//
// This is deliberately a *different, simpler* model than the testbed: it
// knows nothing about occupancy dynamics or the collocated neighbour —
// everything micro-architectural is summarized in one number, the effective
// cache allocation (EA).  When a query's sojourn exceeds the timeout, its
// remaining execution proceeds at `EA x allocation_ratio` times the base
// rate.  Short-term allocation breaks the Markov assumption (service rate
// depends on queueing delay), which is why this is a discrete-event
// simulation rather than a closed-form queueing formula.
//
// The event engine (DESIGN.md §10): arrival and demand streams are pre-drawn
// into reusable buffers shared through a process-wide common-random-number
// cache keyed on (seed, rate, cv, count); arrivals replay from the sorted
// buffer, timeouts queue in a FIFO (their times are nondecreasing by
// construction), and only completions go through an indexed 4-ary min-heap
// with lazy deletion keyed by job generation.  Ties on the time axis break
// in schedule order.  tests/queueing/ggk_fast_test.cpp checks every result
// field bit for bit against an independent single-binary-heap engine with
// inline draws (tests/queueing/ggk_reference.hpp) and against a recorded
// digest.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace stac::queueing {

struct GGkConfig {
  /// Offered load: arrival rate = utilization * servers / mean service.
  double utilization = 0.5;
  std::size_t servers = 2;
  /// Mean service time at the default allocation (any unit; results are in
  /// the same unit).
  double mean_service = 1.0;
  /// Coefficient of variation of per-query demand (log-normal).
  double service_cv = 0.2;
  /// STAP timeout relative to mean service time; >= 6 disables boosting.
  double timeout_rel = 6.0;
  /// Effective cache allocation (Eq. 3) predicted for this condition.
  double effective_allocation = 1.0;
  /// Gross allocation increase l_a' / l_a while boosted.
  double allocation_ratio = 1.0;
  /// Residual-occupancy extension: CAT permits hits in any way, so shared-
  /// way occupancy earned during boosts keeps speeding up *default*phase
  /// execution until displaced.  The default rate is multiplied by
  /// 1 + residual_weight * boost_prevalence * (boost_multiplier - 1), with
  /// `boost_prevalence` fed back from the previous simulation round (the
  /// §3.3 dynamic-condition feedback).
  double residual_weight = 0.9;
  double boost_prevalence = 0.0;
  /// §4 semantics (default): one overdue query switches the whole class of
  /// service, so every executing query runs boosted until the last overdue
  /// query completes.  false = per-query boosting (ablation: misses the
  /// congestion-triggered class-wide speedup and mispredicts heavy-load
  /// long-timeout conditions badly — see DESIGN.md §5b).
  bool class_level_boost = true;
  std::size_t queries = 4000;
  std::size_t warmup = 200;
  std::uint64_t seed = 7;
};

struct GGkResult {
  SampleStats response_times;
  std::size_t boosted_queries = 0;
  std::size_t completed = 0;
  /// Mean instantaneous queueing delay over counted completions — fed back
  /// as a dynamic-condition feature for the model (§3.3 "outputted as
  /// dynamic condition feedback").
  double mean_queue_delay = 0.0;
  /// Teardown invariants (class-level boosting): the refcount left at
  /// simulation end must equal the number of still-outstanding overdue
  /// jobs, and every counted sojourn must be non-negative.
  std::uint32_t residual_boost_refs = 0;
  std::uint32_t residual_overdue_jobs = 0;
  std::uint64_t cos_switches = 0;  ///< class boost transitions (up + down)
  std::uint64_t latency_injections = 0;  ///< "ggk.service" chaos hits
  std::size_t negative_sojourns = 0;     ///< counted completions with rt < 0
};

/// Run the Stage-3 simulator.  Boosted execution rate multiplier is
/// max(1, EA x allocation_ratio) — allocation never slows a query down
/// below its default rate (CAT masks only add fill ways).
[[nodiscard]] GGkResult simulate_ggk(const GGkConfig& config);

/// Drop every pre-drawn common-random-number stream held by the engine's
/// process-wide cache (tests).
void clear_crn_stream_cache();

/// Bound the process-wide CRN stream cache (default 64 streams).  At
/// capacity the whole map is flushed (epoch eviction, like the
/// RtPredictionCache) — a controller sweeping drifting (seed, rate, cv)
/// conditions for the process lifetime stays bounded.  Zero means
/// capacity 1.  The live entry count is exported as the
/// "ggk.crn_stream_cache.size" obs gauge.
void set_crn_stream_cache_capacity(std::size_t capacity);
[[nodiscard]] std::size_t crn_stream_cache_capacity();
[[nodiscard]] std::size_t crn_stream_cache_size();

}  // namespace stac::queueing
