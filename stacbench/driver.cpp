// stacbench driver: runs one benchmark workload at one seed through the
// public API and prints one JSON record of raw measurements on stdout.
// run.py builds this, turns the record into the benchmark's metrics and
// checks the outputs; see README.md in this directory.
//
//   stacbench_driver --workload NAME --seed N --seconds S [--trace-out PATH]
//
// Every workload repeats one round until S seconds have passed (at least
// kMinRounds rounds).  A round is the product end to end on the workload's
// inputs:
//   setup  - construct the StacManager;
//   plan   - calibrate (profile both directions, train), then recommend a
//            timeout vector for each fixed held-out condition (timed:
//            time_to_plan_s, recommend_ms);
//   check  - predict the first held-out conditions (untimed; digest, rung
//            count);
//   setup  - assemble the serving model, start the RefitExecutor and let
//            it run its first (cold) refit, warm the estimator with a few
//            epochs;
//   serve  - the control loop: generate() then run_epoch() per epoch, with
//            warm refits requested at fixed epochs, each carrying one new
//            profile, and awaited off the epoch clock so each swap lands at
//            a fixed epoch (timed).
// Before each plan phase and each timed epoch, outside every timed section,
// the driver times its Reference kernel; run.py scales the gated timings,
// which are process CPU time, by the kernel's median (see README.md).
//
// After the last round, and outside every timing, the held-out conditions
// are run on the testbed at seeds no training run used (APE ground truth),
// EaModel::predict is timed over profiled rows, and the recommended vectors
// are evaluated against no sharing.
//
// With --trace-out the rounds run twice in one process: first untraced,
// then with obs tracing on; the trace of the second pass is written to
// PATH for the per-layer roll-up.  Both passes must give the same digest.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/simd_probe.hpp"
#include "cat/cat_controller.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "core/stac_manager.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/online_controller.hpp"
#include "serve/refit_executor.hpp"
#include "serve/traffic_replay.hpp"

using namespace stac;

namespace {

constexpr std::size_t kMinRounds = 2;
// One pool worker: the parallelism a shared machine delivers changes from
// minute to minute (a spin test finds 1 to 4 CPUs on a 4-vCPU VM), and a
// wider pool turns that into run-to-run spread.  effective_cpus is recorded.
constexpr std::size_t kPoolWorkers = 1;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), in seconds.
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A section's length on both clocks.  The gated timings are process CPU
/// time: with one pool worker, and the refit executor awaited while it
/// works, the process computes on one thread at a time, so its CPU time is
/// the section's wall time on a core of its own.  The wall clock also
/// counts the time the guest's scheduler gives to other processes.
struct Lap {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Starts a section on both clocks; lap() is the time since.
class Stopwatch {
 public:
  Stopwatch() : wall_(now_s()), cpu_(cpu_now_s()) {}
  [[nodiscard]] Lap lap() const { return {now_s() - wall_, cpu_now_s() - cpu_}; }

 private:
  double wall_;
  double cpu_;
};

/// Samples of one timing: CPU time (gated) and wall time (recorded).
struct Series {
  std::vector<double> cpu;
  std::vector<double> wall;
  void push(Lap l, double scale = 1.0) {
    cpu.push_back(l.cpu * scale);
    wall.push_back(l.wall * scale);
  }
};

/// The benchmark's yardstick for the speed the host gives it: a fixed
/// chain of dependent integer operations that touches no memory, so no
/// change to the program and no cache state moves its time.  It runs
/// between timed sections, never inside one; run.py scales every gated
/// timing by its median over the pass.
class Reference {
 public:
  /// CPU milliseconds of one pass of the kernel.
  double run_ms() {
    const Stopwatch sw;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink_.fetch_add(x, std::memory_order_relaxed);
    return sw.lap().cpu * 1e3;
  }

 private:
  static constexpr int kSteps = 1'000'000;
  std::atomic<std::uint64_t> sink_{0};
};

// ---------------------------------------------------------------- workloads

struct ServeShape {
  std::size_t warmup_epochs = 2;
  /// Sinusoidal drift of each service's offered load (0 = stationary).
  bool drift = false;
  std::size_t epochs = 0;
  /// Epochs after which a warm refit is requested.  The executor's cold
  /// first refit (its master models start untrained) runs in setup; with
  /// it, at most full_refit_every (8) refits keep every one of these warm.
  std::vector<std::size_t> refit_after;
  std::size_t shards_per_workload = 4;
  double mean_service = 0.002;
  /// Centres of util_quantum cells, so stationary traffic stays in one.
  double base_util[2] = {0.6, 0.5};
  double amplitude[2] = {0.2, 0.15};
  double period[2] = {50.0, 34.0};
};

struct Workload {
  std::string name;
  wl::Benchmark a = wl::Benchmark::kKmeans;
  wl::Benchmark b = wl::Benchmark::kRedis;
  core::StacOptions opts;
  std::size_t heldout = 64;     ///< held-out conditions (APE)
  std::size_t checked = 16;     ///< first N predicted every round (digest)
  std::size_t rows = 8;         ///< first N profiled for predict throughput
  std::size_t recommends = 4;   ///< first K get a recommendation
  std::size_t truth_completions = 1200;    ///< testbed run per APE truth
  std::size_t speedup_completions = 1500;  ///< testbed run per p95
  ServeShape serve;
};

/// Model and profiling sizes shared by every workload: quickstart's flow
/// at budgets small enough for several rounds per run on one core.
core::StacOptions base_options() {
  core::StacOptions opts;
  opts.profile_budget = 8;
  opts.profiler.target_completions = 300;
  opts.profiler.warmup_completions = 40;
  opts.profiler.max_windows = 1;
  opts.profiler.accesses_per_sample = 1000;
  opts.model.deep_forest.mgs.window_sizes = {5};
  opts.model.deep_forest.mgs.estimators = 6;
  opts.model.deep_forest.cascade.levels = 1;
  opts.model.deep_forest.cascade.estimators = 10;
  opts.predictor.sim_queries = 1500;
  return opts;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  w.opts = base_options();
  if (name == "pipeline") {
    // Testbed runs and tree fits dominate; the serve phase is short and
    // its traffic does not drift.
    w.opts.profile_budget = 10;
    w.opts.profiler.target_completions = 600;
    w.serve.epochs = 30;
    w.serve.refit_after = {1, 5, 9, 13, 17, 21, 25};
  } else if (name == "pipeline_timed") {
    // Working sets stream past the LLC; counter replay goes through the
    // timed hierarchy, so cachesim/memtime own the profiler's time.
    w.a = wl::Benchmark::kSpstream;
    w.b = wl::Benchmark::kBfs;
    w.opts.profiler.hw = cachesim::presets::sapphire_rapids_48mb();
    w.opts.profiler.ea_mode = profiler::EaMode::kModeledTime;
    w.opts.profile_budget = 10;
    w.opts.profiler.accesses_per_sample = 4000;
    w.truth_completions = 4000;  // this pair's testbed runs are cheap
    w.serve.epochs = 30;
    w.serve.refit_after = {1, 5, 9, 13, 17, 21, 25};
  } else if (name == "serve") {
    // Planning dominates: a light calibration, then a drifting loop.
    // The library is as large as the pipelines' (10 conditions per
    // direction) so a warm refit is ~15 ms of work, not ~5 ms of mostly
    // thread hand-offs, whose jitter spread refit_p50_ms by 0.19.
    w.opts.profile_budget = 10;
    w.opts.profiler.target_completions = 250;
    w.serve.drift = true;
    w.serve.epochs = 40;
    w.serve.refit_after = {3, 8, 13, 18, 23, 28, 33};
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

/// Radical inverse of i in `base` (one Halton coordinate in [0, 1)).
double halton(std::size_t i, std::size_t base) {
  double f = 1.0, r = 0.0;
  for (; i > 0; i /= base) {
    f /= static_cast<double>(base);
    r += f * static_cast<double>(i % base);
  }
  return r;
}

/// Points `first` .. `first + n - 1` of a Halton sequence over Table 2
/// (utilizations, timeouts, mixes, churn) with testbed seeds from a range
/// the stratified sampler never draws from in practice (its seeds are full
/// 64-bit draws).
std::vector<profiler::RuntimeCondition> halton_conditions(const Workload& w,
                                                          std::size_t first,
                                                          std::size_t n) {
  const profiler::ConditionRanges r;
  auto coord = [](std::size_t i, std::size_t base, double lo, double hi) {
    return lo + halton(i + 1, base) * (hi - lo);
  };
  std::vector<profiler::RuntimeCondition> out;
  for (std::size_t i = first; i < first + n; ++i) {
    profiler::RuntimeCondition c;
    c.primary = w.a;
    c.collocated = w.b;
    c.util_primary = coord(i, 2, r.util_lo, r.util_hi);
    c.util_collocated = coord(i, 3, r.util_lo, r.util_hi);
    c.timeout_primary = coord(i, 5, r.timeout_lo, r.timeout_hi);
    c.timeout_collocated = coord(i, 7, r.timeout_lo, r.timeout_hi);
    c.mix_primary = coord(i, 11, r.mix_lo, r.mix_hi);
    c.mix_collocated = coord(i, 13, r.mix_lo, r.mix_hi);
    c.churn = coord(i, 17, r.churn_lo, r.churn_hi);
    c.seed = 1'000'000 + i;
    out.push_back(c);
  }
  return out;
}

/// Held-out conditions: a fixed test set, so accuracy and plan quality
/// compare exactly between runs (with per-run testbed seeds, the truth at
/// high utilization moved the APE tail by 15-20% between seeds).
std::vector<profiler::RuntimeCondition> heldout_conditions(const Workload& w) {
  return halton_conditions(w, 0, w.heldout);
}

/// The conditions the warm refits add to the library, one per refit: the
/// Halton points after the held-out set.
std::vector<profiler::RuntimeCondition> refit_conditions(const Workload& w) {
  return halton_conditions(w, w.heldout, w.serve.refit_after.size());
}

// ------------------------------------------------------------------ digest

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) { h = fault_key_hash(&v, sizeof v, h); }
  void add(double v) { h = fault_key_hash(&v, sizeof v, h); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// -------------------------------------------------------------------- JSON

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(k, buf);
  }
  Json& num(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& list(const std::string& k, const std::vector<double>& xs) {
    std::string s = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", xs[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  /// A timing's CPU samples under `k`, its wall samples under `k`_wall.
  Json& series(const std::string& k, const Series& s) {
    return list(k, s.cpu).list(k + "_wall", s.wall);
  }
  Json& strings(const std::string& k, const std::vector<std::string>& xs) {
    std::string s = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
      s += (i ? ",\"" : "\"") + xs[i] + "\"";
    return raw(k, s + "]");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------------ rounds

/// Everything one pass (untraced or traced) measured, pooled over rounds.
struct Pass {
  std::size_t rounds = 0;
  double wall_s = 0.0;
  Series round_s;                     ///< plan + serve loop, per round
  Series setup_s;
  Series time_to_plan_s;
  Series recommend_ms;
  Series replan_ms;
  Series reuse_ms;
  Series refit_ms;
  std::vector<double> reference_ms;   ///< Reference::run_ms between sections
  std::vector<std::string> digests;   ///< one per round
  // operation accounting
  std::uint64_t events_offered = 0, events_dropped = 0, events_drained = 0;
  std::uint64_t epochs = 0, bad_epochs = 0, stale_holds = 0,
                deadline_misses = 0, replan_epochs = 0;
  std::uint64_t predictions = 0, below_rung0 = 0;
  // serve layer detail
  double plan_busy_s = 0.0, drain_estimate_busy_s = 0.0, generate_busy_s = 0.0;
  double loop_s = 0.0;             ///< generate + run_epoch, timed epochs
  std::uint64_t loop_events = 0;   ///< events drained in timed epochs
  std::uint64_t swaps_observed = 0, refits_warm = 0, refits_cold = 0;
  std::uint64_t cat_write_failures = 0, cat_write_retries = 0;
  std::uint64_t cells_simulated = 0, cells_reused = 0;
  bool accounting_exact = true;
  bool outputs_valid = true;
  std::vector<std::string> problems;
};

/// Round outputs kept for the ground-truth step (identical every round).
struct PlanOutputs {
  std::unique_ptr<core::StacManager> mgr;  ///< the calibrated manager
  std::vector<core::RtPrediction> predictions;
  std::vector<core::PolicySelection> selections;
};

cachesim::HierarchyConfig cat_hardware() {
  // The serve demo's small hierarchy: the CatController only mirrors grants.
  cachesim::HierarchyConfig hw;
  hw.l1d = {8 * 1024, 8, 64, 4};
  hw.l1i = {8 * 1024, 8, 64, 4};
  hw.l2 = {64 * 1024, 16, 64, 12};
  hw.llc = {512 * 1024, 8, 64, 40};
  return hw;
}

void problem(Pass& pass, const std::string& what) {
  pass.outputs_valid = false;
  if (pass.problems.size() < 8) pass.problems.push_back(what);
}

/// One round; returns the plan outputs (for ground truth) and fills `pass`.
/// `deltas` holds the profiles of refit_conditions(w); the run's first
/// round profiles them, outside every timing, and later rounds reuse them.
PlanOutputs run_round(const Workload& w, std::uint64_t seed, Pass& pass,
                      std::vector<profiler::Profile>& deltas,
                      Reference& ref) {
  // The seed makes the serve traffic.  The calibration keeps the library's
  // own sampler seed, so every run plans with a model trained on the same
  // profiles, for the same held-out conditions.
  const auto heldout = heldout_conditions(w);
  const core::StacOptions& opts = w.opts;
  Digest digest;
  PlanOutputs out;

  // --- setup: the manager.
  Lap setup;
  std::unique_ptr<core::StacManager> mgr;
  {
    const Stopwatch sw;
    obs::TraceSpan span("bench.setup_manager", "bench");
    mgr = std::make_unique<core::StacManager>(opts);
    setup = sw.lap();
  }

  // --- plan: calibrate, then recommend for the first K held-out.
  pass.reference_ms.push_back(ref.run_ms());
  const Stopwatch plan_sw;
  {
    obs::TraceSpan span("bench.calibrate", "bench");
    mgr->calibrate(w.a, w.b);
  }
  const auto& grid = opts.explorer.grid;
  for (std::size_t k = 0; k < w.recommends; ++k) {
    const Stopwatch rec_sw;
    core::PolicyExploration rec;
    {
      obs::TraceSpan span("bench.recommend", "bench");
      rec = mgr->recommend(heldout[k]);
    }
    pass.recommend_ms.push(rec_sw.lap(), 1e3);
    const double tp = rec.selection.timeout_primary;
    const double tc = rec.selection.timeout_collocated;
    if (std::find(grid.begin(), grid.end(), tp) == grid.end() ||
        std::find(grid.begin(), grid.end(), tc) == grid.end())
      problem(pass, "recommended timeout off the grid");
    digest.add(tp);
    digest.add(tc);
    out.selections.push_back(rec.selection);
  }
  const Lap plan_lap = plan_sw.lap();
  pass.time_to_plan_s.push(plan_lap);

  // --- check: held-out predictions (untimed).
  for (std::size_t i = 0; i < w.checked; ++i) {
    core::RtPrediction p;
    {
      obs::TraceSpan span("bench.predict", "bench");
      p = mgr->predict(heldout[i]);
    }
    ++pass.predictions;
    if (p.rung != core::DegradationRung::kPrimaryModel) ++pass.below_rung0;
    if (!(std::isfinite(p.mean_rt) && p.mean_rt > 0.0 &&
          std::isfinite(p.p95_rt) && p.p95_rt >= p.mean_rt))
      problem(pass, "held-out prediction not finite/positive/ordered");
    digest.add(p.mean_rt);
    digest.add(p.p95_rt);
    digest.add(static_cast<std::uint64_t>(p.rung));
    out.predictions.push_back(p);
  }

  // --- setup: the serving stack.
  const Stopwatch serve_setup_sw;
  serve::ArrivalIngest ring(1 << 16);
  // The manager's trained models go into the first bundle as they are:
  // build_serving_model would refit them to bit-identical models.
  std::unique_ptr<serve::ModelSnapshot<serve::ServingModel>> models;
  {
    obs::TraceSpan span("bench.assemble_serving_model", "bench");
    models = std::make_unique<serve::ModelSnapshot<serve::ServingModel>>(
        serve::assemble_serving_model(mgr->profiler(), mgr->library(),
                                      mgr->model(), mgr->fallback_model(), 1,
                                      opts.predictor));
  }
  serve::RefitExecutorConfig rx;
  rx.model = opts.model;
  rx.predictor = opts.predictor;
  serve::RefitExecutor refits(mgr->profiler(), *models, mgr->library(), rx,
                              /*first_version=*/2);
  refits.start();
  {
    // The masters start untrained, so the executor's first refit is cold:
    // part of standing the serving stack up, not of the loop's refits.
    obs::TraceSpan span("bench.refit_cold", "bench");
    if (!refits.wait(refits.request_refit(core::ProfileLibrary{}), 120.0))
      problem(pass, "cold refit did not publish");
  }
  cachesim::CacheHierarchy hw(cat_hardware(), 2);
  const cat::AllocationPlan plan = cat::make_pair_plan(8, 1, 2);
  cat::CatController cat_ctl(hw, plan);

  serve::ControllerConfig cfg;
  cfg.base_condition = heldout[0];
  cfg.base_condition.timeout_primary = 1.0;
  cfg.base_condition.timeout_collocated = 1.0;
  cfg.base_condition.seed = 99;
  cfg.explorer = opts.explorer;
  cfg.estimator.min_completions = 10;
  serve::OnlineController controller(ring, *models, cfg, &cat_ctl);

  const ServeShape& s = w.serve;
  serve::ReplayConfig traffic;
  for (int k = 0; k < 2; ++k)
    traffic.workloads.push_back({.mean_service = s.mean_service,
                                 .service_cv = 0.8,
                                 .servers = 2,
                                 .base_util = s.base_util[k],
                                 .util_amplitude = s.drift ? s.amplitude[k] : 0.0,
                                 .util_period = s.period[k]});
  traffic.shards_per_workload = s.shards_per_workload;
  traffic.seed = seed;
  serve::TrafficReplay replay(ring, &controller, traffic);

  const double interval = 2.0;
  std::uint64_t offered = 0;
  std::uint64_t push_failures = 0;
  std::size_t epoch_no = 0;
  auto one_epoch = [&](Lap& gen, Lap& epoch) {
    const double t0 = static_cast<double>(epoch_no) * interval;
    const double t1 = t0 + interval;
    ++epoch_no;
    const Stopwatch gen_sw;
    serve::ReplayStats st;
    {
      obs::TraceSpan span("bench.generate", "bench");
      st = replay.generate(t0, t1);
    }
    gen = gen_sw.lap();
    offered += st.arrivals + st.timeouts + st.completions;
    push_failures += st.push_failures;
    const Stopwatch epoch_sw;
    serve::EpochReport r;
    {
      obs::TraceSpan span("bench.run_epoch", "bench");
      r = controller.run_epoch(t1);
    }
    epoch = epoch_sw.lap();
    ++pass.epochs;
    if (r.stale_hold || r.deadline_miss) ++pass.bad_epochs;
    if (r.warm) {
      ++pass.predictions;
      if (r.probe_rung != core::DegradationRung::kPrimaryModel)
        ++pass.below_rung0;
    }
    digest.add(r.timeout_primary);
    digest.add(r.timeout_collocated);
    return r;
  };
  {
    obs::TraceSpan span("bench.warmup", "bench");
    for (std::size_t e = 0; e < s.warmup_epochs; ++e) {
      Lap g, ep;
      (void)one_epoch(g, ep);
    }
  }
  const Lap serve_setup = serve_setup_sw.lap();
  pass.setup_s.push(
      {setup.wall + serve_setup.wall, setup.cpu + serve_setup.cpu});
  if (deltas.empty())
    deltas = mgr->profiler().profile_conditions(refit_conditions(w));

  // --- serve: the timed loop.
  Lap loop;
  std::uint64_t swaps_seen = controller.totals().model_swaps_observed;
  std::size_t next_refit = 0;
  for (std::size_t e = 0; e < s.epochs; ++e) {
    pass.reference_ms.push_back(ref.run_ms());
    Lap g, ep;
    const serve::EpochReport r = one_epoch(g, ep);
    loop.wall += g.wall + ep.wall;
    loop.cpu += g.cpu + ep.cpu;
    pass.loop_events += r.events_drained;
    pass.generate_busy_s += g.wall;
    pass.plan_busy_s += r.plan_seconds;
    pass.drain_estimate_busy_s += std::max(0.0, ep.wall - r.plan_seconds);
    pass.cells_simulated += r.cells_simulated;
    pass.cells_reused += r.cells_reused;
    if (r.cells_simulated > 0) {
      pass.replan_ms.push(ep, 1e3);
      ++pass.replan_epochs;
    } else {
      pass.reuse_ms.push(ep, 1e3);
    }
    if (next_refit < s.refit_after.size() && e == s.refit_after[next_refit]) {
      // Off the epoch clock: request, then wait for the publish so the
      // swap is observed by the next epoch on every machine.
      core::ProfileLibrary delta;
      delta.add(deltas[next_refit]);
      const std::uint64_t warm_before = refits.stats().warm;
      const Stopwatch refit_sw;
      obs::TraceSpan span("bench.refit", "bench");
      const std::uint64_t ticket = refits.request_refit(std::move(delta));
      if (!refits.wait(ticket, 120.0)) {
        problem(pass, "refit did not publish");
      } else if (refits.stats().warm > warm_before) {
        pass.refit_ms.push(refit_sw.lap(), 1e3);
      }
      ++next_refit;
    }
  }
  pass.round_s.push({plan_lap.wall + loop.wall, plan_lap.cpu + loop.cpu});
  pass.loop_s += loop.wall;
  refits.stop();

  const auto& tot = controller.totals();
  pass.swaps_observed += tot.model_swaps_observed - swaps_seen;
  pass.stale_holds += tot.stale_holds;
  pass.deadline_misses += tot.deadline_misses;
  const serve::RefitStats rs = refits.stats();
  pass.refits_warm += rs.warm;
  pass.refits_cold += rs.cold;
  pass.cat_write_failures += cat_ctl.fault_stats().write_failures;
  pass.cat_write_retries += cat_ctl.fault_stats().write_retries;
  if (tot.model_swaps_observed - swaps_seen != s.refit_after.size())
    problem(pass, "model swaps observed != refits requested");
  if (refits.library_size() != mgr->library().size() + deltas.size())
    problem(pass, "refit deltas did not all reach the library");

  // Exact event accounting: every offered event was pushed or dropped,
  // and everything pushed was drained by the controller.
  pass.events_offered += offered;
  pass.events_dropped += ring.dropped();
  pass.events_drained += tot.events_drained;
  if (ring.pushed() + ring.dropped() != offered ||
      ring.popped() != ring.pushed() || tot.events_drained != ring.popped() ||
      push_failures != ring.dropped()) {
    pass.accounting_exact = false;
    problem(pass, "event accounting not exact");
  }
  if (tot.replans == 0) problem(pass, "controller never replanned");

  pass.digests.push_back(digest.hex());
  ++pass.rounds;
  out.mgr = std::move(mgr);
  return out;
}

Pass run_pass(const Workload& w, std::uint64_t seed, double seconds,
              std::vector<profiler::Profile>& deltas, Reference& ref,
              PlanOutputs* keep) {
  Pass pass;
  const double start = now_s();
  do {
    PlanOutputs o = run_round(w, seed, pass, deltas, ref);
    if (keep != nullptr && pass.rounds == 1) *keep = std::move(o);
  } while (pass.rounds < kMinRounds || now_s() - start < seconds);
  pass.wall_s = now_s() - start;
  for (const auto& d : pass.digests)
    if (d != pass.digests.front()) problem(pass, "digest differs across rounds");
  return pass;
}

std::string pass_json(const Pass& p) {
  Json j;
  j.num("rounds", static_cast<std::uint64_t>(p.rounds))
      .num("wall_s", p.wall_s)
      .series("round_s", p.round_s)
      .series("setup_s", p.setup_s)
      .series("time_to_plan_s", p.time_to_plan_s)
      .series("recommend_ms", p.recommend_ms)
      .series("replan_ms", p.replan_ms)
      .series("reuse_ms", p.reuse_ms)
      .series("refit_ms", p.refit_ms)
      .list("reference_ms", p.reference_ms)
      .strings("digests", p.digests)
      .num("events_offered", p.events_offered)
      .num("events_dropped", p.events_dropped)
      .num("events_drained", p.events_drained)
      .num("epochs", p.epochs)
      .num("bad_epochs", p.bad_epochs)
      .num("stale_holds", p.stale_holds)
      .num("deadline_misses", p.deadline_misses)
      .num("replan_epochs", p.replan_epochs)
      .num("predictions", p.predictions)
      .num("below_rung0", p.below_rung0)
      .num("plan_busy_s", p.plan_busy_s)
      .num("drain_estimate_busy_s", p.drain_estimate_busy_s)
      .num("generate_busy_s", p.generate_busy_s)
      .num("loop_s", p.loop_s)
      .num("loop_events", p.loop_events)
      .num("swaps_observed", p.swaps_observed)
      .num("refits_warm", p.refits_warm)
      .num("refits_cold", p.refits_cold)
      .num("cat_write_failures", p.cat_write_failures)
      .num("cat_write_retries", p.cat_write_retries)
      .num("cells_simulated", p.cells_simulated)
      .num("cells_reused", p.cells_reused)
      .flag("accounting_exact", p.accounting_exact)
      .flag("outputs_valid", p.outputs_valid)
      .strings("problems", p.problems);
  return j.str();
}

// ----------------------------------------------------------- ground truth

struct GroundTruth {
  std::vector<double> ape_pct;
  std::vector<double> speedup_ratios;  ///< no-sharing p95 / recommended p95
  double predict_rows_per_s = 0.0;
  std::uint64_t rows = 0;
  std::string digest;  ///< every held-out prediction
  std::vector<std::string> problems;
};

GroundTruth ground_truth(const Workload& w, const PlanOutputs& plan) {
  const core::StacManager& mgr = *plan.mgr;
  const auto heldout = heldout_conditions(w);
  GroundTruth gt;
  Digest digest;

  // Held-out mean-RT APE against the testbed, each condition run at its
  // own seed (none used in training) and long enough for a steady mean.
  // Every condition is predicted once on this manager: the checked ones in
  // the round, the rest here.  (A repeated predict() can differ in the last
  // bits once the simulation memo answers it, so the digest covers first
  // calls only.)
  for (std::size_t i = 0; i < heldout.size(); ++i) {
    const core::RtPrediction p = i < plan.predictions.size()
                                     ? plan.predictions[i]
                                     : mgr.predict(heldout[i]);
    digest.add(p.mean_rt);
    digest.add(p.p95_rt);
    const auto truth = mgr.evaluate(heldout[i], heldout[i].timeout_primary,
                                    heldout[i].timeout_collocated,
                                    w.truth_completions);
    gt.ape_pct.push_back(std::abs(p.mean_rt - truth.mean_rt(0)) /
                         truth.mean_rt(0) * 100.0);
  }
  gt.digest = digest.hex();

  // EaModel::predict throughput over the rows of the first few.
  const std::vector<profiler::RuntimeCondition> profiled(
      heldout.begin(), heldout.begin() + static_cast<long>(w.rows));
  std::vector<ml::ProfileSample> rows;
  for (const auto& q : mgr.profiler().profile_conditions(profiled))
    rows.push_back(mgr.model().make_sample(q));
  gt.rows = rows.size();
  if (rows.empty()) {
    gt.problems.push_back("no held-out rows profiled");
  } else {
    double sink = 0.0;
    std::size_t done = 0;
    const double t0 = now_s();
    do {
      for (const auto& r : rows) sink += mgr.model().predict(r);
      done += rows.size();
    } while (now_s() - t0 < 0.25);
    gt.predict_rows_per_s = static_cast<double>(done) / (now_s() - t0);
    if (!(sink > 0.0)) gt.problems.push_back("EA predictions not positive");
  }

  // Recommended vector vs no sharing, testbed p95 of both services.
  const core::PolicySelection none = core::select_no_sharing();
  for (std::size_t k = 0; k < plan.selections.size(); ++k) {
    const auto base =
        mgr.evaluate(heldout[k], none.timeout_primary, none.timeout_collocated,
                     w.speedup_completions);
    const auto chosen = mgr.evaluate(heldout[k],
                                     plan.selections[k].timeout_primary,
                                     plan.selections[k].timeout_collocated,
                                     w.speedup_completions);
    for (std::size_t s = 0; s < 2; ++s)
      gt.speedup_ratios.push_back(base.p95_rt(s) / chosen.p95_rt(s));
  }
  return gt;
}

// -------------------------------------------------------------------- meta

/// Parallelism the machine delivers: `workers` threads spinning on a fixed
/// amount of work each, against one thread doing the same; median of three.
double effective_cpus(std::size_t workers) {
  auto spin = [](std::uint64_t iters) {
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    std::atomic<std::uint64_t> sink{0};
    double t0 = now_s();
    sink += spin(kIters);
    const double one = now_s() - t0;
    t0 = now_s();
    std::vector<std::thread> ts;
    for (std::size_t i = 0; i < workers; ++i)
      ts.emplace_back([&] { sink += spin(kIters); });
    for (auto& th : ts) th.join();
    const double many = now_s() - t0;
    ratios.push_back(static_cast<double>(workers) * one / many);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (a.workload.empty() || !(a.seconds > 0.0))
    throw std::runtime_error(
        "usage: stacbench_driver --workload W --seed N --seconds S "
        "[--trace-out PATH]");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    // Pin the global pool before its first use.
    ::setenv("STAC_THREADS", std::to_string(kPoolWorkers).c_str(), 1);
    ::unsetenv("STAC_TRACE");
    obs::set_enabled(false);
    const Workload w = make_workload(args.workload);
    const std::size_t pool = ThreadPool::global().size();
    const double eff = effective_cpus(std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4));

    const bool traced = !args.trace_out.empty();
    const double pass_seconds = traced ? args.seconds / 2.0 : args.seconds;
    PlanOutputs plan;
    std::vector<profiler::Profile> deltas;
    Reference ref;
    const Pass untraced =
        run_pass(w, args.seed, pass_seconds, deltas, ref, &plan);

    Json rec;
    rec.str("workload", w.name)
        .num("seed", args.seed)
        .num("pool_workers", static_cast<std::uint64_t>(pool))
        .num("effective_cpus", eff)
        .str("isa", cachesim::simd::isa_name())
        .raw("untraced", pass_json(untraced));

    if (traced) {
      obs::TraceBuffer& buf = obs::TraceBuffer::global();
      auto& reg = obs::MetricsRegistry::global();
      const char* counters[] = {"testbed.events", "ggk.completed",
                                "explore.cells_simulated",
                                "explore.cells_reused"};
      std::vector<std::uint64_t> before;
      for (const char* c : counters) before.push_back(reg.counter_value(c));
      buf.clear();
      obs::set_enabled(true);
      const Pass tp = run_pass(w, args.seed, pass_seconds, deltas, ref, nullptr);
      obs::set_enabled(false);
      Json cj;
      for (std::size_t i = 0; i < before.size(); ++i)
        cj.num(counters[i], reg.counter_value(counters[i]) - before[i]);
      rec.raw("traced", pass_json(tp))
          .raw("trace_counters", cj.str())
          .num("trace_events", static_cast<std::uint64_t>(buf.size()))
          .num("trace_dropped", buf.dropped())
          .flag("trace_written", buf.write_chrome_trace(args.trace_out));
    }

    const double gt0 = now_s();
    const GroundTruth gt = ground_truth(w, plan);
    rec.num("ground_truth_s", now_s() - gt0);
    rec.list("ape_pct", gt.ape_pct)
        .list("speedup_ratios", gt.speedup_ratios)
        .num("predict_rows_per_s", gt.predict_rows_per_s)
        .num("predict_rows", gt.rows)
        .str("heldout_digest", gt.digest)
        .strings("heldout_problems", gt.problems)
        .num("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", rec.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stacbench_driver: %s\n", e.what());
    return 1;
  }
}
