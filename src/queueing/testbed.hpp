// The ground-truth collocated testbed: the discrete-event simulator that
// substitutes for the paper's physical Xeon + CAT machines.
//
// Per workload: Poisson query arrivals (rate expressed as a utilization of
// the baseline service rate), a FIFO queue in front of `servers` cores, and
// a short-term allocation policy (a, a', t).  Query execution progresses at
// an instantaneous rate set by the workload's miss-ratio curve evaluated at
// its current *effective* ways — private ways plus its occupancy share of
// the shared regions (shared_region.hpp).  When a query's sojourn exceeds
// t x expected service time, the workload's class of service switches to
// the boosted mask (all outstanding queries share it, §4) and its misses
// start filling the shared region; completion of the last boosted query
// reverts the mask, but earned occupancy persists until neighbours' fills
// displace it.  Contention, recurring slowdowns, and arrival-rate coupling
// all emerge from this loop rather than being scripted.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "cat/stap.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "queueing/arrival.hpp"
#include "queueing/shared_region.hpp"
#include "wl/workload.hpp"

namespace stac::queueing {

struct TestbedWorkload {
  const wl::WorkloadModel* model = nullptr;
  /// Offered load as a fraction of capacity: arrival rate =
  /// utilization * servers / (scaled baseline service time).  Table 2
  /// studies 25%–95%.
  double utilization = 0.5;
  /// Query slots (the paper provisions 2 cores per service).
  std::size_t servers = 2;
  /// Service-time normalization multiplier: simulations of pairs with very
  /// different native timescales compress the ratio (see DESIGN.md) —
  /// conditions are all expressed relative to service time, so results are
  /// scale-free.
  double time_scale = 1.0;
  ArrivalKind arrival_kind = ArrivalKind::kExponential;
};

struct TestbedConfig {
  std::vector<TestbedWorkload> workloads;
  cat::StapVector staps;  ///< one per workload, aligned with `workloads`
  /// Shared-region turnover speed: with every workload filling at its
  /// baseline miss rate, the region is displaced `occupancy_response` times
  /// per simulated time unit.  Fill-rate *ratios* between workloads always
  /// follow their physical miss rates; this constant only sets how fast
  /// occupancy reacts relative to service times (time-compressed
  /// simulations have no single physical mapping, see DESIGN.md).
  double occupancy_response = 2.0;
  /// Background displacement of shared-way occupancy (OS activity,
  /// prefetchers, other tenants) in region-capacities per time unit; makes
  /// short-term allocation genuinely short-term — earned occupancy decays
  /// within a few service times unless the workload keeps boosting.
  double background_churn = 0.25;
  /// Concurrent-displacement penalty on shared-way benefit (see
  /// OccupancyModel::set_thrash_sensitivity): makes permanent mutual
  /// sharing strictly worse than alternating short-term boosts — the
  /// recurring-contention slowdown the paper's policies must navigate.
  double thrash_sensitivity = 0.6;
  /// Stop once every workload has this many *counted* completions.
  std::size_t target_completions = 2000;
  /// Completions per workload discarded as warmup.
  std::size_t warmup_completions = 100;
  /// Hard safety caps.
  double max_time = 1e9;
  std::uint64_t max_events = 20'000'000;
  std::uint64_t seed = 1;
  /// Trace hook: > 0 records a TraceSample every `sample_interval` time
  /// units (the profiler's 12–60 samples/min counter sampling, §3.1).
  double sample_interval = 0.0;
  std::size_t max_trace_samples = 100'000;
  /// Grant watchdog: force-revoke a workload's boost once its class has
  /// been continuously boosted for more than this many expected service
  /// times (<= 0 disables).  Outstanding boosted queries lose their grant
  /// (their later unboosts become no-ops) so a leaked refcount can never
  /// pin shared ways indefinitely.
  double max_boost_lease_rel = 0.0;
};

/// Chaos accounting: what the armed FaultInjector did to this run.  The
/// testbed consults the "profiler.sample" fault point per trace sample
/// (drop / corrupt) and the "testbed.service" point per arrival (latency);
/// all zero when no plan is armed.
struct TestbedFaultCounters {
  std::uint64_t dropped_samples = 0;
  std::uint64_t corrupted_samples = 0;
  std::uint64_t latency_injections = 0;
  std::uint64_t watchdog_revocations = 0;  ///< boost leases force-revoked
};

/// Point-in-time dynamic state captured by the trace hook (the profiler
/// replays these through the cache simulator to produce counter images).
struct TraceSample {
  double time = 0.0;
  struct PerWorkload {
    std::uint32_t busy = 0;       ///< queries in service
    std::uint32_t queued = 0;     ///< queries waiting
    bool boosted = false;
    double occupancy = 0.0;       ///< total shared occupancy
    double effective_ways = 0.0;
    double exec_rate = 0.0;       ///< per-query demand/sec
  };
  std::vector<PerWorkload> per_workload;
};

struct TestbedWorkloadResult {
  SampleStats response_times;  ///< sojourn (queue + service), counted only
  SampleStats queue_delays;
  SampleStats service_durations;
  std::size_t completed = 0;         ///< counted completions
  std::size_t boosted_queries = 0;   ///< counted completions that boosted
  double boost_time_fraction = 0.0;  ///< fraction of time class was boosted
  double mean_effective_ways = 0.0;  ///< time-averaged
  double mean_occupancy = 0.0;       ///< time-averaged total shared occ
  std::uint64_t cos_switches = 0;
  /// Teardown invariants: the boost refcount at simulation end must equal
  /// the number of still-in-flight boosted queries (zero leaks).
  std::uint32_t final_boost_refs = 0;
  std::uint32_t final_inflight_boosted = 0;
};

struct TestbedResult {
  std::vector<TestbedWorkloadResult> per_workload;
  std::vector<TraceSample> trace;  ///< empty unless sample_interval > 0
  double sim_time = 0.0;
  std::uint64_t events_processed = 0;
  bool hit_event_cap = false;
  TestbedFaultCounters faults;

  /// Mean response time of workload w; quiet NaN for an out-of-range
  /// workload id or when the workload completed zero queries (both happen
  /// under heavy fault injection), never a thrown exception.
  [[nodiscard]] double mean_rt(std::size_t w) const {
    if (w >= per_workload.size() || per_workload[w].completed == 0)
      return std::numeric_limits<double>::quiet_NaN();
    return per_workload[w].response_times.mean();
  }
  [[nodiscard]] double p95_rt(std::size_t w) const {
    if (w >= per_workload.size())
      return std::numeric_limits<double>::quiet_NaN();
    return per_workload[w].response_times.percentile_or(
        0.95, std::numeric_limits<double>::quiet_NaN());
  }
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  /// Run to completion and report.
  [[nodiscard]] TestbedResult run();

  /// Effective cache allocation (Eq. 3) measured from two testbed runs:
  ///   EA = (T_default / T_policy) / (l_a' / l_a)
  /// where T_* are mean *service* durations (queueing excluded) and the
  /// denominator is the gross allocation increase.  The paper's Eq. 3
  /// prints the inverse ratio but describes "speedup / increased
  /// allocation"; we implement the description (EA in (0, 1], ~1 when extra
  /// ways convert fully into speedup).
  [[nodiscard]] static double effective_allocation(
      double service_time_policy, double service_time_default,
      double allocation_ratio);

 private:
  struct Query {
    double arrival = 0.0;
    double demand = 1.0;
    double remaining = 0.0;  ///< demand units left
    double start = -1.0;     ///< service start time (-1: queued)
    double expected_service = 0.0;
    bool boosted = false;
    bool done = false;
    std::uint32_t gen = 0;  ///< completion-event generation
  };

  struct WlState {
    TestbedWorkload cfg;
    cat::Stap stap;
    std::vector<Query> queries;
    std::deque<std::size_t> fifo;
    std::vector<std::size_t> in_service;
    double next_rate = 0.0;      ///< per-query execution rate (demand/sec)
    double miss_fill_rate = 0.0; ///< region-capacities/sec while boosted
    std::uint32_t boost_refs = 0;
    double scaled_base_service = 0.0;
    std::uint32_t lease_gen = 0;  ///< invalidates stale kLease events
    /// Every in-service query's queued completion was computed at the
    /// current time, rate and in-service set, so rescheduling them again
    /// would only push exact duplicates (stale no-ops when popped).
    bool completions_current = false;
    // accumulators
    TestbedWorkloadResult result;
    double eff_ways_integral = 0.0;
    double occ_integral = 0.0;
    double boost_time = 0.0;
    std::size_t total_completed = 0;
  };

  enum class EventType : std::uint8_t {
    kArrival,
    kCompletion,
    kTimeout,
    kRefresh,
    kLease  ///< grant-watchdog lease expiry
  };
  struct Event {
    double time;
    std::uint64_t seq;  ///< FIFO tie-break for determinism
    EventType type;
    std::uint32_t wl;
    std::uint32_t query;
    std::uint32_t gen;
    [[nodiscard]] bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void schedule(double time, EventType type, std::uint32_t wlid,
                std::uint32_t query = 0, std::uint32_t gen = 0);
  void advance_to(double t);
  void recompute_rates();
  void reschedule_completions(std::uint32_t wlid);
  void maybe_schedule_refresh();
  void start_service(std::uint32_t wlid, std::size_t qid);
  void handle_arrival(std::uint32_t wlid);
  void handle_completion(std::uint32_t wlid, std::uint32_t qid,
                         std::uint32_t gen);
  void handle_timeout(std::uint32_t wlid, std::uint32_t qid);
  void set_boost(std::uint32_t wlid, bool up);
  /// Grant watchdog: drop every boost grant of the workload (refcount to
  /// zero, outstanding queries lose their boosted flag) and revert the COS.
  void force_revoke_boost(std::uint32_t wlid);
  [[nodiscard]] bool all_done() const;

  TestbedConfig config_;
  OccupancyModel occupancy_;
  std::vector<WlState> wl_;
  std::vector<Event> heap_;
  void record_trace_sample(double at);

  Rng rng_;
  std::vector<TraceSample> trace_;
  TestbedFaultCounters faults_;
  double next_sample_ = 0.0;
  double fill_kappa_ = 0.0;  ///< global fill-rate normalizer
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::uint32_t refresh_gen_ = 0;
  std::uint64_t sample_ordinal_ = 0;   ///< fault key: trace samples seen
  std::uint64_t arrival_ordinal_ = 0;  ///< fault key: arrivals admitted
};

}  // namespace stac::queueing
