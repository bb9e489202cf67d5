#include "queueing/ggk_simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stac::queueing {

namespace {

/// Completion staleness epsilon: must exceed the time-axis ULP at any
/// reachable clock value, or a residual smaller than one ULP reschedules the
/// event at `now` forever (demand units are O(1), so 1e-9 is negligible).
constexpr double kResidualEps = 1e-9;

struct Job {
  double arrival = 0.0;
  double demand = 1.0;
  /// Remaining work as of `snap_time`.  Between two reschedule points a
  /// job's rate is constant (every rate change reschedules the affected
  /// completions), so the service "area" consumed since the snapshot is the
  /// single product snap_rate * (now - snap_time) — remaining work is
  /// decremented lazily at reschedule points, never on every event.
  double remaining = 1.0;
  double snap_time = 0.0;
  double snap_rate = 0.0;
  double start = -1.0;
  bool overdue = false;  ///< timeout fired while incomplete
  bool done = false;
  std::uint32_t gen = 0;  ///< lazy-deletion key for queued completions
};

/// Config-derived constants.
struct Derived {
  double lambda = 0.0;
  double boost_mult = 1.0;
  double dflt_rate = 0.0;
  double boost_rate = 0.0;
  double timeout_abs = 0.0;
  bool boosting = false;
  std::size_t arrival_limit = 0;  ///< last arrival ordinal that schedules a successor
  std::size_t target = 0;         ///< completions to count before stopping
};

Derived derive(const GGkConfig& config) {
  Derived d;
  d.lambda = config.utilization * static_cast<double>(config.servers) /
             config.mean_service;
  d.boost_mult =
      std::max(1.0, config.effective_allocation * config.allocation_ratio);
  // Residual-occupancy speedup of the default phase (see GGkConfig).
  const double residual_mult =
      1.0 + std::clamp(config.residual_weight * config.boost_prevalence, 0.0,
                       1.0) *
                (d.boost_mult - 1.0);
  d.dflt_rate = std::min(residual_mult, d.boost_mult) / config.mean_service;
  d.boost_rate = d.boost_mult / config.mean_service;
  d.timeout_abs = config.timeout_rel * config.mean_service;
  d.boosting = config.timeout_rel < 6.0 && config.allocation_ratio > 1.0;
  d.arrival_limit = config.queries + config.servers * 4;
  d.target = config.queries - config.warmup;
  return d;
}

/// Chaos hook: an injected service-latency spike inflates this job's
/// demand.  Keyed on (seed, arrival ordinal) so the schedule is a pure
/// function of the plan seed, not of event timing.
void apply_service_fault(const GGkConfig& config, std::size_t ordinal,
                         Job& job, GGkResult& result) {
  if (!FaultInjector::global().armed()) return;
  const auto fault = FaultInjector::global().evaluate(
      "ggk.service", fault_key(config.seed, static_cast<std::uint64_t>(ordinal)));
  if (fault.action == FaultAction::kLatency) {
    job.demand *= 1.0 + std::max(0.0, fault.latency);
    ++result.latency_injections;
    obs::instant("fault.ggk.service", "fault");
  }
}

/// Job accounting, FIFO queue and class-boost state; the event loop in
/// simulate_events decides only which pending event fires next.
struct Core {
  const GGkConfig& config;
  const Derived& d;
  std::vector<Job> jobs;
  std::vector<std::size_t> fifo_q;   // waiting job indices (FIFO)
  std::vector<std::size_t> serving;  // in-service job indices
  std::size_t fifo_head = 0;
  std::uint32_t boost_refs = 0;
  double now = 0.0;
  GGkResult result;
  double queue_delay_sum = 0.0;

  Core(const GGkConfig& c, const Derived& dd) : config(c), d(dd) {}

  // Class-level: any overdue query boosts everyone.  Per-query (ablation):
  // each job runs at its own rate.
  [[nodiscard]] double rate_for(const Job& job) const {
    if (config.class_level_boost)
      return boost_refs > 0 ? d.boost_rate : d.dflt_rate;
    return job.overdue ? d.boost_rate : d.dflt_rate;
  }

  void advance_to(double t) {
    // Clock monotonicity is the invariant every sojourn (now - arrival)
    // depends on: all pushes are `now + nonneg` and events pop in time
    // order, so a popped event behind `now` means queue corruption or a
    // negative interarrival/duration — fail loudly instead of silently
    // producing rt < 0.
    STAC_ENSURE(t >= now - 1e-9 * std::max(1.0, now));
    now = std::max(now, t);
  }

  /// Bring `remaining` up to `now`.  `next` can only dip below zero by
  /// float dust: every rate change reschedules the affected completions (a
  /// new snapshot), so work depletes exactly at a scheduled completion
  /// modulo rounding in now + remaining/rate.  A materially negative
  /// residual would mean an unrescheduled rate change — an event-ordering
  /// bug this check exists to catch.
  void materialize(Job& job) {
    if (job.snap_time < now) {
      const double next =
          job.remaining - job.snap_rate * (now - job.snap_time);
      STAC_ENSURE(next > -1e-6);
      job.remaining = std::max(0.0, next);
      job.snap_time = now;
    }
  }

  /// Take a fresh snapshot for job `j` at the current rate and bump its
  /// generation (queued completions with the old generation go stale).
  /// Returns the new completion time for the engine to enqueue.
  double schedule(std::size_t j) {
    Job& job = jobs[j];
    materialize(job);
    job.snap_rate = rate_for(job);
    ++job.gen;
    return now + job.remaining / job.snap_rate;
  }

  struct CompleteResult {
    bool class_reverted = false;            ///< boost refcount hit zero
    std::size_t start_next =
        static_cast<std::size_t>(-1);       ///< FIFO job to start, if any
  };

  /// Completion bookkeeping once a job's work is verifiably done.  The
  /// event loop must reschedule the class on `class_reverted` and only then
  /// start `start_next`: that order fixes the sequence numbers ties break
  /// on.
  CompleteResult complete(std::size_t j) {
    Job& job = jobs[j];
    job.done = true;
    serving.erase(std::find(serving.begin(), serving.end(), j));
    CompleteResult r;
    if (job.overdue && config.class_level_boost) {
      STAC_ENSURE(boost_refs > 0);
      if (--boost_refs == 0) {
        ++result.cos_switches;
        r.class_reverted = true;
      }
    }
    if (j >= config.warmup) {
      result.response_times.add(now - job.arrival);
      queue_delay_sum += job.start - job.arrival;
      if (now - job.arrival < 0.0) ++result.negative_sojourns;
      if (job.overdue) ++result.boosted_queries;
      ++result.completed;
    }
    if (fifo_head < fifo_q.size()) r.start_next = fifo_q[fifo_head++];
    return r;
  }

  void finish() {
    result.mean_queue_delay =
        result.completed > 0
            ? queue_delay_sum / static_cast<double>(result.completed)
            : 0.0;
    result.residual_boost_refs = boost_refs;
    for (const Job& job : jobs)
      if (!job.done && job.overdue) ++result.residual_overdue_jobs;
  }
};

// --------------------------------------------------------------------------
// Common-random-number stream cache: the engine pre-draws the full
// arrival/demand randomness of a run into reusable buffers keyed on
// (seed, arrival rate, demand cv, count).  Replaying a policy grid — where
// only the timeout and the boost rates change — then reuses one stream per
// (seed, queries), so each cell is a replay, not a regeneration (the CRN
// variance-reduction classic: grid cells differ only by the policy, never
// by sampling noise).  The draw order is that of one Rng drawing inline as
// arrivals fire (tests/queueing/ggk_reference.hpp does exactly that).
// --------------------------------------------------------------------------

struct PredrawnStreams {
  std::vector<double> arrival;  ///< absolute arrival time per ordinal
  std::vector<double> demand;   ///< pre-fault demand per ordinal
};

struct StreamKey {
  std::uint64_t seed = 0;
  std::uint64_t lambda_bits = 0;
  std::uint64_t cv_bits = 0;
  std::uint64_t count = 0;
  bool operator==(const StreamKey&) const = default;
};

struct StreamKeyHash {
  std::size_t operator()(const StreamKey& k) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (const std::uint64_t v : {k.seed, k.lambda_bits, k.cv_bits, k.count}) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

std::shared_ptr<const PredrawnStreams> generate_streams(std::uint64_t seed,
                                                        double lambda,
                                                        double cv,
                                                        std::size_t count) {
  auto s = std::make_shared<PredrawnStreams>();
  s->arrival.resize(count);
  s->demand.resize(count);
  Rng rng(seed);
  // Inline draw order: the initial interarrival, then per arrival event k
  // the successor's interarrival (while one is still scheduled) followed by
  // job k's demand.
  s->arrival[0] = rng.exponential(lambda);
  for (std::size_t k = 0; k < count; ++k) {
    if (k + 1 < count)
      s->arrival[k + 1] = s->arrival[k] + rng.exponential(lambda);
    s->demand[k] = cv > 0.0 ? rng.lognormal_mean_cv(1.0, cv) : 1.0;
  }
  return s;
}

/// Streams are ~16 bytes per query; a handful of (seed, load) points are
/// live at once during a sweep, so a small cap bounds memory and the rare
/// overflow just starts the cache afresh.  Overridable via
/// set_crn_stream_cache_capacity for soaks over drifting conditions.
constexpr std::size_t kCrnCacheDefaultCap = 64;

struct CrnCache {
  std::mutex mu;
  std::size_t capacity = kCrnCacheDefaultCap;
  std::unordered_map<StreamKey, std::shared_ptr<const PredrawnStreams>,
                     StreamKeyHash>
      map;
};

CrnCache& crn_cache() {
  static CrnCache cache;
  return cache;
}

std::shared_ptr<const PredrawnStreams> crn_streams(std::uint64_t seed,
                                                   double lambda, double cv,
                                                   std::size_t count) {
  const StreamKey key{seed, std::bit_cast<std::uint64_t>(lambda),
                      std::bit_cast<std::uint64_t>(cv), count};
  auto& cache = crn_cache();
  {
    std::lock_guard lock(cache.mu);
    if (const auto it = cache.map.find(key); it != cache.map.end()) {
      obs::MetricsRegistry::global().counter("ggk.crn_stream_hits").add();
      return it->second;
    }
  }
  obs::MetricsRegistry::global().counter("ggk.crn_stream_misses").add();
  auto s = generate_streams(seed, lambda, cv, count);
  std::size_t entries = 0;
  std::shared_ptr<const PredrawnStreams> out;
  {
    std::lock_guard lock(cache.mu);
    const auto [it, inserted] = cache.map.try_emplace(key, s);
    out = it->second;  // a racing identical insert may have won: same bits
    if (inserted && cache.map.size() > cache.capacity) {
      cache.map.clear();  // epoch flush, like RtPredictionCache
      cache.map.emplace(key, out);
    }
    entries = cache.map.size();
  }
  obs::MetricsRegistry::global().gauge("ggk.crn_stream_cache.size").set(
      static_cast<double>(entries));
  return out;
}

// --------------------------------------------------------------------------
// Event loop.  Arrivals replay from the sorted pre-drawn buffer and
// timeouts queue in a FIFO (arrival times are nondecreasing and the timeout
// offset is constant, so timeout times are nondecreasing too); only
// completions — the one event class that genuinely reorders — go through an
// indexed 4-ary min-heap with lazy deletion keyed by job generation.  Every
// event carries a sequence number in the order a single heap holding all
// three kinds would have been pushed, so ties on the time axis break by
// schedule order.
// --------------------------------------------------------------------------

struct CompletionEv {
  double time;
  std::uint64_t seq;
  std::uint32_t job;
  std::uint32_t gen;
};

/// Flat 4-ary min-heap over (time, seq).  Shallower than a binary heap for
/// the same size (log4 vs log2 levels) and all four children share one
/// cache line's worth of entries, so sift-down does fewer, cheaper levels.
class FourAryHeap {
 public:
  [[nodiscard]] bool empty() const { return h_.empty(); }
  [[nodiscard]] const CompletionEv& top() const { return h_.front(); }

  void push(const CompletionEv& e) {
    h_.push_back(e);
    std::size_t i = h_.size() - 1;
    while (i > 0) {
      const std::size_t p = (i - 1) / 4;
      if (!before(h_[i], h_[p])) break;
      std::swap(h_[i], h_[p]);
      i = p;
    }
  }

  void pop() {
    h_.front() = h_.back();
    h_.pop_back();
    if (h_.empty()) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t c0 = 4 * i + 1;
      if (c0 >= h_.size()) break;
      std::size_t best = c0;
      const std::size_t c_end = std::min(h_.size(), c0 + 4);
      for (std::size_t c = c0 + 1; c < c_end; ++c)
        if (before(h_[c], h_[best])) best = c;
      if (!before(h_[best], h_[i])) break;
      std::swap(h_[i], h_[best]);
      i = best;
    }
  }

 private:
  static bool before(const CompletionEv& a, const CompletionEv& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  std::vector<CompletionEv> h_;
};

struct TimeoutEv {
  double time;
  std::uint64_t seq;
  std::uint32_t job;
};

GGkResult simulate_events(const GGkConfig& config, const Derived& d,
                          const PredrawnStreams& streams) {
  const std::size_t count = d.arrival_limit + 1;  // arrival ordinals 0..limit

  Core core(config, d);
  FourAryHeap completions;
  std::vector<TimeoutEv> timeouts;
  core.jobs.reserve(count);
  if (d.boosting) timeouts.reserve(count);
  // The run stops at exactly d.target counted completions.
  core.result.response_times.reserve(d.target);
  std::size_t timeout_head = 0;
  std::size_t next_arrival = 0;
  // Sequence numbers in single-heap push order: the initial arrival is
  // "pushed" with seq 0 before the loop starts.
  std::uint64_t next_arrival_seq = 0;
  std::uint64_t seq = 1;

  auto schedule_completion = [&](std::size_t j) {
    const double t = core.schedule(j);
    completions.push(
        {t, seq++, static_cast<std::uint32_t>(j), core.jobs[j].gen});
  };
  auto reschedule_all = [&]() {
    for (std::size_t j : core.serving) schedule_completion(j);
  };

  while (core.result.completed < d.target) {
    // Pick the earliest of the three event sources by (time, seq).
    int src = -1;
    double t = 0.0;
    std::uint64_t s = 0;
    if (next_arrival < count) {
      t = streams.arrival[next_arrival];
      s = next_arrival_seq;
      src = 0;
    }
    if (timeout_head < timeouts.size()) {
      const TimeoutEv& te = timeouts[timeout_head];
      if (src < 0 || te.time < t || (te.time == t && te.seq < s)) {
        t = te.time;
        s = te.seq;
        src = 1;
      }
    }
    if (!completions.empty()) {
      const CompletionEv& ce = completions.top();
      if (src < 0 || ce.time < t || (ce.time == t && ce.seq < s)) {
        t = ce.time;
        s = ce.seq;
        src = 2;
      }
    }
    if (src < 0) break;  // every source exhausted
    core.advance_to(t);

    if (src == 0) {  // arrival of job ordinal `next_arrival`
      const std::size_t k = next_arrival++;
      if (k < d.arrival_limit) next_arrival_seq = seq++;  // successor arrival
      Job job;
      job.arrival = core.now;
      job.demand = streams.demand[k];
      apply_service_fault(config, k + 1, job, core.result);
      job.remaining = job.demand;
      job.snap_time = core.now;
      core.jobs.push_back(job);
      const std::size_t idx = core.jobs.size() - 1;
      if (d.boosting)
        timeouts.push_back({core.now + d.timeout_abs, seq++,
                            static_cast<std::uint32_t>(idx)});
      if (core.serving.size() < config.servers) {
        core.jobs[idx].start = core.now;
        core.serving.push_back(idx);
        schedule_completion(idx);
      } else {
        core.fifo_q.push_back(idx);
      }
    } else if (src == 1) {  // timeout
      const std::size_t j = timeouts[timeout_head++].job;
      Job& job = core.jobs[j];
      if (job.done || job.overdue) continue;
      job.overdue = true;
      if (config.class_level_boost) {
        if (core.boost_refs++ == 0) {
          ++core.result.cos_switches;
          reschedule_all();  // class switched
        }
      } else if (job.start >= 0.0) {
        schedule_completion(j);  // only this job speeds up
      }
    } else {  // completion (possibly stale)
      const CompletionEv ce = completions.top();
      completions.pop();
      Job& job = core.jobs[ce.job];
      if (job.done || job.gen != ce.gen) continue;  // stale (lazy deletion)
      core.materialize(job);
      if (job.remaining > kResidualEps) {  // rate changed since scheduling
        schedule_completion(ce.job);
        continue;
      }
      const Core::CompleteResult cr = core.complete(ce.job);
      if (cr.class_reverted) reschedule_all();  // class reverted
      if (cr.start_next != static_cast<std::size_t>(-1)) {
        core.jobs[cr.start_next].start = core.now;
        core.serving.push_back(cr.start_next);
        schedule_completion(cr.start_next);
      }
    }
  }
  core.finish();
  return core.result;
}

}  // namespace

void clear_crn_stream_cache() {
  {
    auto& cache = crn_cache();
    std::lock_guard lock(cache.mu);
    cache.map.clear();
  }
  obs::MetricsRegistry::global().gauge("ggk.crn_stream_cache.size").set(0.0);
}

void set_crn_stream_cache_capacity(std::size_t capacity) {
  auto& cache = crn_cache();
  std::lock_guard lock(cache.mu);
  cache.capacity = capacity == 0 ? 1 : capacity;
  if (cache.map.size() > cache.capacity) cache.map.clear();
}

std::size_t crn_stream_cache_capacity() {
  auto& cache = crn_cache();
  std::lock_guard lock(cache.mu);
  return cache.capacity;
}

std::size_t crn_stream_cache_size() {
  auto& cache = crn_cache();
  std::lock_guard lock(cache.mu);
  return cache.map.size();
}

GGkResult simulate_ggk(const GGkConfig& config) {
  STAC_TRACE_SPAN(span, "ggk.simulate", "queueing");
  STAC_REQUIRE(config.utilization > 0.0 && config.utilization < 1.0);
  STAC_REQUIRE(config.servers >= 1);
  STAC_REQUIRE(config.mean_service > 0.0);
  STAC_REQUIRE(config.queries > config.warmup);

  const Derived d = derive(config);
  const std::shared_ptr<const PredrawnStreams> streams = crn_streams(
      config.seed, d.lambda, config.service_cv, d.arrival_limit + 1);
  GGkResult result = simulate_events(config, d, *streams);

  span.arg("utilization", config.utilization);
  span.arg("completed", static_cast<std::uint64_t>(result.completed));
  span.arg("cos_switches", result.cos_switches);
  obs::count("ggk.runs");
  obs::count("ggk.completed", result.completed);
  obs::count("ggk.latency_injections", result.latency_injections);
  return result;
}

}  // namespace stac::queueing
