// Simulation-core performance: the G/G/k event loop, the cache-hierarchy
// and memory-time layers, and Stage-3 memoization, measured end to end and
// recorded in the machine-readable BENCH_PR10.json:
//
//   ggk_event_loop     the one G/G/k engine (pre-drawn CRN streams, sorted-
//                      arrival replay, 4-ary lazy-deletion completion heap)
//                      over a timeout x load grid, single thread: completions
//                      per second, and a digest of every result checked
//                      against the one recorded at the default seed
//   cache_replay       SoA cache levels (packed tag/valid/owner/age lanes,
//                      branch-light probe) vs the legacy array-of-Way
//                      layout on a hierarchy access-trace replay
//                      (target >= 1.5x)
//   probe_simd         widest-ISA probe/victim kernels vs the scalar
//                      oracles (identity, not speed: the end-to-end effect
//                      is inside cache_replay); records the effective ISA
//   policy_sweep_memo  RtPredictionCache memoization of the paper's 25-cell
//                      policy grid vs always-resimulating (target >50% hit
//                      rate, visible in obs_metrics; 150 simulation
//                      requests: 50 predictions x 3 runs each)
//   timed_replay       memtime-timed replay (split hit/miss latencies,
//                      bandwidth-queued DRAM) vs the flat fast path, plus
//                      the timing-off closed-form identity and the queue
//                      monotonicity check the CI gates assert
//   cross_hardware     one trace replayed on every shipped preset: modeled
//                      cycles per access, DRAM queue share, stacked-tier
//                      hit fraction (the Fig. 7a hardware axis)
//
// Every fast/legacy pair is cross-checked bit for bit, and the G/G/k grid
// against its recorded digest — a speedup that changes a single sample,
// counter or selection is a bug, and CI asserts the identity fields of the
// emitted JSON (.github/workflows/ci.yml).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>

#include "bench_util.hpp"
#include "cachesim/cache_hierarchy.hpp"
#include "cachesim/simd_probe.hpp"
#include "common/rng.hpp"
#include "core/policy_explorer.hpp"
#include "core/rt_predictor.hpp"
#include "obs/trace.hpp"
#include "queueing/ggk_simulator.hpp"

using namespace stac;
using namespace stac::bench;

namespace {

/// Best-of-`reps` wall time for one call.
template <typename Fn>
double timed_best(std::size_t reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

/// FNV-1a over every GGkResult field of the grid, doubles by bit pattern.
std::uint64_t ggk_digest(const std::vector<queueing::GGkResult>& results) {
  std::uint64_t h = 1469598103934665603ULL;
  auto put = [&h](const auto& v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    for (unsigned char c : b) h = (h ^ c) * 1099511628211ULL;
  };
  for (const queueing::GGkResult& r : results) {
    put(r.response_times.count());
    for (const double x : r.response_times.samples()) put(x);
    put(r.mean_queue_delay);
    put(r.completed);
    put(r.boosted_queries);
    put(r.cos_switches);
    put(r.residual_boost_refs);
    put(r.residual_overdue_jobs);
    put(r.latency_injections);
    put(r.negative_sojourns);
  }
  return h;
}

/// The Stage-3 shape the rt_predictor sweeps: one (seed, load) stream
/// replayed across the whole timeout grid.
std::vector<queueing::GGkConfig> ggk_grid(std::size_t queries,
                                          std::uint64_t seed) {
  std::vector<queueing::GGkConfig> grid;
  for (const double util : {0.6, 0.9}) {
    for (const double timeout : {0.0, 0.5, 1.0, 2.0, 4.0}) {
      queueing::GGkConfig c;
      c.utilization = util;
      c.servers = 2;
      c.service_cv = 1.2;
      c.timeout_rel = timeout;
      c.effective_allocation = 0.6;
      c.allocation_ratio = 3.0;
      c.queries = queries;
      c.warmup = queries / 20;
      c.seed = seed;
      grid.push_back(c);
    }
  }
  return grid;
}

struct Trace {
  std::vector<cachesim::MemoryAccess> refs;
  std::vector<cachesim::ClassId> classes;
};

/// Two collocated classes; per class a word-granular loop walk over a
/// 16 KB (L1-resident) working set, a random hot region sized for L2, and
/// a cold region sized past L2 so the LLC probe and CAT-masked fill paths
/// stay busy — the Stage-1 profiling shape.  References are 8-byte words,
/// as a real replay emits them: a 64-byte line serves ~8 consecutive
/// accesses before the walk crosses into the next line.  The 90/8/2 mix
/// puts the L1 hit rate around the 90-99% real workloads show, so the
/// benchmark weights the probe fast path the way production replays do
/// while still exercising every miss path.
Trace cache_trace(std::size_t n, std::uint64_t seed) {
  Trace t;
  t.refs.reserve(n);
  t.classes.reserve(n);
  std::uint64_t state = seed | 1;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr std::uint64_t kWalkBytes = 16 * 1024;         // fits L1
  constexpr std::uint64_t kHotBytes = 192 * 1024;         // fits L2
  constexpr std::uint64_t kColdBytes = 16 * 1024 * 1024;  // spills to LLC
  std::uint64_t seq[2] = {0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<cachesim::ClassId>(next() & 1);
    const std::uint64_t base = (cls + 1) * (1ULL << 32);
    const std::uint64_t pick = next() % 100;
    std::uint64_t addr;
    if (pick < 90) {
      addr = base + (seq[cls] += 8) % kWalkBytes;  // word-granular loop walk
    } else if (pick < 98) {
      addr = base + next() % kHotBytes;  // random hot: L2 traffic
    } else {
      addr = base + kHotBytes + next() % kColdBytes;  // cold: LLC traffic
    }
    cachesim::AccessType type = cachesim::AccessType::kLoad;
    if (pick % 10 == 0) type = cachesim::AccessType::kStore;
    if (pick % 10 == 9) type = cachesim::AccessType::kIfetch;
    t.refs.push_back({addr, type});
    t.classes.push_back(cls);
  }
  return t;
}

cachesim::HierarchyConfig hierarchy_with_layout(bool soa) {
  cachesim::HierarchyConfig cfg;  // generic: 32K L1, 1M L2, 40M/20-way LLC
  cfg.l1d.soa = soa;
  cfg.l1i.soa = soa;
  cfg.l2.soa = soa;
  cfg.llc.soa = soa;
  return cfg;
}

/// Drive the trace through per-reference access() calls — the seed-style
/// driver the legacy side runs.  Returns the latency sum (the value the
/// identity check compares, alongside full per-class counter images).
std::uint64_t drive_per_access(cachesim::CacheHierarchy& h, const Trace& t,
                               cachesim::WayMask mask0,
                               cachesim::WayMask mask1) {
  h.reset();
  h.set_llc_fill_mask(0, mask0);
  h.set_llc_fill_mask(1, mask1);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < t.refs.size(); ++i)
    total += h.access(t.classes[i], t.refs[i]);
  return total;
}

/// Drive the trace through the batched replay() entry point (fast side).
std::uint64_t drive_replay(cachesim::CacheHierarchy& h, const Trace& t,
                           cachesim::WayMask mask0, cachesim::WayMask mask1) {
  h.reset();
  h.set_llc_fill_mask(0, mask0);
  h.set_llc_fill_mask(1, mask1);
  return h.replay(t.refs.data(), t.classes.data(), t.refs.size());
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::parse(argc, argv);
  // This binary owns a section of the PR-10 record; an explicit --json or
  // STAC_BENCH_JSON still wins.
  if (args.json_path == "BENCH_PR2.json" &&
      std::getenv("STAC_BENCH_JSON") == nullptr)
    args.json_path = "BENCH_PR10.json";
  print_banner(std::cout, "Simulation-core performance (G/G/k, cachesim, memoization)");
  const std::size_t workers = ensure_bench_pool();
  obs::set_enabled(true);  // gauges (hit rates) ride along in obs_metrics

  JsonObject record;
  JsonObject meta;
  meta.set("hardware_threads",
           static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .set("pool_workers", workers)
      .set("seed", static_cast<std::size_t>(args.seed))
      .set("fast", args.fast)
      .set("simd_isa", cachesim::simd::isa_name());
  record.set("meta", meta);
  Table table({"Stage", "legacy", "fast", "speedup", "identical"});
  const std::size_t reps = args.fast ? 1 : 3;

  // ---- Stage 1: G/G/k event loop ---------------------------------------
  {
    const std::size_t queries = args.fast ? 6000 : 40000;
    const auto grid = ggk_grid(queries, args.seed);
    std::vector<queueing::GGkResult> results(grid.size());
    const double secs = timed_best(reps, [&] {
      // Cold CRN cache each rep: the stream pre-draw cost is part of the
      // measured path, amortized over the grid exactly as a predictor
      // timeout sweep amortizes it.
      queueing::clear_crn_stream_cache();
      for (std::size_t i = 0; i < grid.size(); ++i)
        results[i] = queueing::simulate_ggk(grid[i]);
    });
    std::size_t completed = 0;
    for (const queueing::GGkResult& r : results) completed += r.completed;

    // Recorded at the default seed, --fast (6000 queries) and full (40000),
    // while a second, single-binary-heap engine still shipped beside this
    // one and matched it bit for bit; other seeds have no reference.
    constexpr std::uint64_t kRecordedFast = 0xcbe15a075b44da31ULL;
    constexpr std::uint64_t kRecordedFull = 0xb80fbe3feae18abaULL;
    const bool checked = args.seed == BenchArgs{}.seed;
    const std::uint64_t digest = ggk_digest(results);
    const bool matches =
        digest == (args.fast ? kRecordedFast : kRecordedFull);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(digest));
    JsonObject s;
    s.set("grid_cells", grid.size())
        .set("queries_per_cell", queries)
        .set("seconds", secs)
        .set("completed", completed)
        .set("completions_per_s", static_cast<double>(completed) / secs)
        .set("digest", std::string(hex))
        .set("digest_checked", checked);
    if (checked)
      s.set("digest_matches", matches);
    else
      s.set("digest_matches", "n/a");
    record.set("ggk_event_loop", s);
    table.add_row({"G/G/k timeout grid", "-", Table::num(secs, 3) + "s",
                   "-", !checked ? "n/a (seed)" : matches ? "yes" : "NO"});
  }

  // ---- Stage 2: cache-hierarchy replay, SoA vs AoS levels --------------
  {
    const std::size_t n = args.fast ? 300000 : 3000000;
    const Trace trace = cache_trace(n, args.seed + 11);
    cachesim::CacheHierarchy aos(hierarchy_with_layout(false), 2);
    cachesim::CacheHierarchy soa(hierarchy_with_layout(true), 2);
    // Asymmetric CAT masks: one boosted class, one clipped — exercises the
    // masked-victim scan and the outside-mask hit path.
    const cachesim::WayMask mask0 = aos.llc().full_mask();
    const cachesim::WayMask mask1 = 0x3F;

    // Interleave the two sides within each rep (rather than timing all
    // legacy reps then all SoA reps) so ambient load perturbs both measures
    // alike; best-of per side still rejects one-off stalls.
    std::uint64_t lat_aos = 0, lat_soa = 0;
    double legacy_s = std::numeric_limits<double>::infinity();
    double soa_s = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
      Stopwatch sw;
      lat_aos = drive_per_access(aos, trace, mask0, mask1);
      legacy_s = std::min(legacy_s, sw.seconds());
      sw.restart();
      lat_soa = drive_replay(soa, trace, mask0, mask1);
      soa_s = std::min(soa_s, sw.seconds());
    }

    bool identical = lat_aos == lat_soa;
    for (cachesim::ClassId cls = 0; cls < 2; ++cls)
      identical = identical &&
                  aos.counters(cls).values == soa.counters(cls).values &&
                  aos.llc_occupancy(cls) == soa.llc_occupancy(cls);
    const double speedup = legacy_s / soa_s;
    JsonObject s;
    s.set("accesses", n)
        .set("legacy_s", legacy_s)
        .set("soa_s", soa_s)
        .set("speedup", speedup)
        .set("bit_identical", identical);
    record.set("cache_replay", s);
    table.add_row({"hierarchy replay (SoA)", Table::num(legacy_s, 3) + "s",
                   Table::num(soa_s, 3) + "s", Table::num(speedup, 2),
                   identical ? "yes" : "NO"});
  }

  // ---- Stage 2b: SIMD probe/victim kernels vs the scalar oracles -------
  {
    // Identity, not wall-clock: the kernels' end-to-end effect is already
    // inside cache_replay; here the widest compiled tier is checked bit for
    // bit against the scalar reference so BENCH_PR10.json records which ISA
    // produced the replay numbers and that it is trustworthy.
    Rng rng(args.seed + 21);
    bool identical = true;
    std::size_t checks = 0;
    for (std::size_t trial = 0; trial < 4000 && identical; ++trial) {
      const std::size_t ways = 2 + rng.uniform_index(19);  // 2..20
      std::vector<std::uint64_t> keys(ways);
      std::vector<std::uint32_t> ages(ways);
      std::uint32_t usable = 0;
      for (std::size_t w = 0; w < ways; ++w) {
        keys[w] = rng.next_u64() | (rng.bernoulli(0.75) ? (1ULL << 63) : 0);
        ages[w] = static_cast<std::uint32_t>(w * 7919u + trial);
        if (rng.bernoulli(0.5)) usable |= 1u << w;
      }
      if (usable == 0) usable = 1u;
      const std::uint64_t probe =
          rng.bernoulli(0.5) ? keys[rng.uniform_index(ways)] | (1ULL << 63)
                             : rng.next_u64() | (1ULL << 63);
      const auto ref = cachesim::simd::probe_sweep_scalar(keys.data(), ways,
                                                          probe);
      const auto wide = cachesim::simd::probe_sweep(keys.data(), ways, probe);
      identical = identical && ref.match == wide.match &&
                  ref.valid == wide.valid &&
                  cachesim::simd::victim_scan_scalar(ages.data(), ways,
                                                     usable) ==
                      cachesim::simd::victim_scan(ages.data(), ways, usable);
      ++checks;
    }
    JsonObject s;
    s.set("isa", cachesim::simd::isa_name())
        .set("trials", checks)
        .set("bit_identical", identical);
    record.set("probe_simd", s);
    table.add_row({"SIMD probe/victim", "scalar",
                   cachesim::simd::isa_name(), "-",
                   identical ? "yes" : "NO"});
  }

  // ---- Stage 2c: timed replay (memtime subsystem) ----------------------
  {
    // Three claims recorded for the CI gates:
    //   timing_off_identity — with flat timing the modeled cycle totals
    //     equal the closed form sum(counters x latency), so the timing
    //     layer is provably free of behavioural drift when off;
    //   queue_monotonic     — higher offered DRAM traffic never lowers the
    //     next access's modeled latency (the windowed queue is monotone in
    //     utilization by construction; this checks the shipped binary);
    //   timed vs untimed throughput — the timed path (split latencies,
    //     bandwidth queue, stacked tier) must stay within a small constant
    //     factor of the flat fast path.
    const std::size_t n = args.fast ? 300000 : 3000000;
    const Trace trace = cache_trace(n, args.seed + 31);

    cachesim::HierarchyConfig flat_cfg = hierarchy_with_layout(true);
    cachesim::HierarchyConfig timed_cfg = flat_cfg;
    timed_cfg.timing.l1d = {1, 4, memtime::LookupMode::kParallel};
    timed_cfg.timing.l1i = {1, 4, memtime::LookupMode::kParallel};
    timed_cfg.timing.l2 = {4, 8, memtime::LookupMode::kSequential};
    timed_cfg.timing.llc = {14, 30, memtime::LookupMode::kSequential};
    timed_cfg.timing.dram.bandwidth_bytes_per_cycle = 16.0;

    cachesim::CacheHierarchy flat_hw(flat_cfg, 2);
    cachesim::CacheHierarchy timed_hw(timed_cfg, 2);
    const cachesim::WayMask mask0 = flat_hw.llc().full_mask();
    const cachesim::WayMask mask1 = 0x3F;

    std::uint64_t flat_lat = 0, timed_lat = 0;
    double flat_s = std::numeric_limits<double>::infinity();
    double timed_s = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < reps; ++r) {
      Stopwatch sw;
      flat_lat = drive_replay(flat_hw, trace, mask0, mask1);
      flat_s = std::min(flat_s, sw.seconds());
      sw.restart();
      timed_lat = drive_replay(timed_hw, trace, mask0, mask1);
      timed_s = std::min(timed_s, sw.seconds());
    }

    // Identity: flat modeled cycles match the closed form exactly.
    std::uint64_t closed_form = 0;
    for (cachesim::ClassId cls = 0; cls < 2; ++cls) {
      const auto ctr = flat_hw.counters(cls);
      using cachesim::Counter;
      closed_form +=
          (ctr.get(Counter::kL1dLoads) + ctr.get(Counter::kL1dStores)) *
              flat_cfg.l1d.latency_cycles +
          ctr.get(Counter::kL1iLoads) * flat_cfg.l1i.latency_cycles +
          ctr.get(Counter::kL2Requests) * flat_cfg.l2.latency_cycles +
          (ctr.get(Counter::kLlcLoads) + ctr.get(Counter::kLlcStores)) *
              flat_cfg.llc.latency_cycles +
          (ctr.get(Counter::kMemReads) + ctr.get(Counter::kMemWrites)) *
              flat_cfg.memory_latency_cycles;
    }
    const bool timing_off_identity =
        flat_lat == closed_form && flat_hw.clock_cycles() == flat_lat;

    // Counter identity: the timing layer must not perturb hit/miss streams.
    bool counters_identical = true;
    for (cachesim::ClassId cls = 0; cls < 2; ++cls) {
      const auto a = flat_hw.counters(cls);
      const auto b = timed_hw.counters(cls);
      for (std::size_t i = 0; i < cachesim::kCounterCount; ++i) {
        const auto c = static_cast<cachesim::Counter>(i);
        if (c == cachesim::Counter::kStallCycles ||
            c == cachesim::Counter::kCycles ||
            c == cachesim::Counter::kIpcX1000)
          continue;
        counters_identical = counters_identical && a.values[i] == b.values[i];
      }
    }

    // Monotonicity of the shipped queue model: 4x the offered bytes can
    // never lower the next access's latency, across a spread of loads.
    bool queue_monotonic = true;
    for (const int load : {1, 4, 16, 64, 256}) {
      memtime::DramPerfSpec qs;
      qs.base_latency_cycles = 200;
      qs.bandwidth_bytes_per_cycle = 16.0;
      qs.window_cycles = 4096;
      memtime::DramPerfModel light(qs, 0), heavy(qs, 0);
      for (int i = 0; i < load; ++i) light.access(10, 64);
      for (int i = 0; i < load * 4; ++i) heavy.access(10, 64);
      queue_monotonic = queue_monotonic &&
                        heavy.access(11, 64).total >= light.access(11, 64).total;
    }

    const double slowdown = timed_s / flat_s;
    const auto timed_total = timed_hw.total_cycles();
    JsonObject s;
    s.set("accesses", n)
        .set("timed_total_cycles", static_cast<std::size_t>(timed_lat))
        .set("untimed_s", flat_s)
        .set("timed_s", timed_s)
        .set("timed_slowdown", slowdown)
        .set("untimed_maccess_per_s", n / flat_s / 1e6)
        .set("timed_maccess_per_s", n / timed_s / 1e6)
        .set("timing_off_identity", timing_off_identity)
        .set("counters_identical", counters_identical)
        .set("queue_monotonic", queue_monotonic)
        .set("timed_cycles_per_access", timed_total.cycles_per_access())
        .set("timed_dram_queue_cycles",
             static_cast<std::size_t>(
                 timed_total.get(cachesim::CycleLevel::kDramQueue)));
    record.set("timed_replay", s);
    table.add_row({"timed replay (memtime)", Table::num(flat_s, 3) + "s",
                   Table::num(timed_s, 3) + "s",
                   Table::num(1.0 / slowdown, 2),
                   (timing_off_identity && counters_identical &&
                    queue_monotonic)
                       ? "yes"
                       : "NO"});
  }

  // ---- Stage 2d: cross-hardware sweep over all presets -----------------
  {
    // The Fig. 7a rerun's hardware axis: one trace replayed on every
    // shipped preset, recording modeled cycles per access (now a real
    // differentiator between parts — flat presets only differ via geometry,
    // timed ones via latency/bandwidth/stacked-tier too).
    const std::size_t n = args.fast ? 200000 : 1000000;
    const Trace trace = cache_trace(n, args.seed + 41);
    JsonObject sweep;
    std::size_t preset_count = 0;
    for (const cachesim::HierarchyConfig& cfg : cachesim::presets::all()) {
      cachesim::CacheHierarchy hw(cfg, 2);
      Stopwatch sw;
      const std::uint64_t cycles =
          hw.replay(trace.refs.data(), trace.classes.data(), trace.refs.size());
      const double secs = sw.seconds();
      const auto total = hw.total_cycles();
      const double dc_accesses =
          static_cast<double>(total.dram_cache_hits + total.dram_cache_misses);
      JsonObject p;
      p.set("llc_mb", cfg.llc.size_bytes / (1024.0 * 1024.0))
          .set("timed", !cfg.timing_flat())
          .set("cycles_per_access", total.cycles_per_access())
          .set("dram_queue_share",
               cycles ? static_cast<double>(
                            total.get(cachesim::CycleLevel::kDramQueue)) /
                            static_cast<double>(cycles)
                      : 0.0)
          .set("dram_cache_hit_frac",
               dc_accesses > 0.0 ? total.dram_cache_hits / dc_accesses : 0.0)
          .set("maccess_per_s", n / secs / 1e6);
      if (cfg.timing.dram_cache.has_value()) {
        // The Stage-1 trace fits inside a 64 MB LLC, so the stacked tier
        // above only sees compulsory misses.  Measure the tier on its own
        // terms: a circular line sweep sized past the LLC but inside the
        // tier — pass 1 populates it, pass 2 must hit it.
        const std::uint64_t sweep_bytes = std::min<std::uint64_t>(
            cfg.timing.dram_cache->geometry.size_bytes,
            cfg.llc.size_bytes + cfg.llc.size_bytes / 2);
        const std::uint64_t lines = sweep_bytes / cfg.l1d.line_bytes;
        std::vector<cachesim::MemoryAccess> pass(lines);
        std::vector<cachesim::ClassId> zeros(lines, 0);
        for (std::uint64_t i = 0; i < lines; ++i)
          pass[i] = {i * cfg.l1d.line_bytes, cachesim::AccessType::kLoad};
        cachesim::CacheHierarchy tier_hw(cfg, 1);
        tier_hw.replay(pass.data(), zeros.data(), pass.size());  // populate
        const auto warm = tier_hw.total_cycles();
        tier_hw.replay(pass.data(), zeros.data(), pass.size());  // re-sweep
        const auto done = tier_hw.total_cycles();
        const double tier_hits =
            static_cast<double>(done.dram_cache_hits - warm.dram_cache_hits);
        const double tier_refs = static_cast<double>(
            (done.dram_cache_hits + done.dram_cache_misses) -
            (warm.dram_cache_hits + warm.dram_cache_misses));
        p.set("tier_sweep_mb", sweep_bytes / (1024.0 * 1024.0))
            .set("tier_sweep_hit_frac",
                 tier_refs > 0.0 ? tier_hits / tier_refs : 0.0);
      }
      sweep.set(cfg.name, p);
      ++preset_count;
    }
    sweep.set("preset_count", preset_count);
    record.set("cross_hardware", sweep);
    table.add_row({"cross-hardware sweep",
                   std::to_string(preset_count) + " presets", "-", "-",
                   preset_count >= 8 ? "yes" : "NO"});
  }

  // ---- Stage 3: policy sweep with RtPredictionCache memoization --------
  {
    profiler::ProfilerConfig pc;
    pc.target_completions = args.fast ? 250 : 400;
    pc.warmup_completions = 40;
    profiler::Profiler profiler(pc);
    core::RtPredictorConfig rc;
    rc.analytic_ea = true;  // the sweep cost is all Stage-3 simulation
    rc.sim_queries = args.fast ? 2000 : 6000;
    rc.seed = args.seed + 4;
    profiler::RuntimeCondition cond;
    cond.primary = wl::Benchmark::kKmeans;
    cond.collocated = wl::Benchmark::kRedis;
    cond.util_primary = 0.9;
    cond.util_collocated = 0.9;
    cond.seed = args.seed + 5;
    core::ExplorerConfig ec;  // the paper's 5x5 = 25-setting grid
    ec.parallel = false;      // isolate memoization from pool effects

    rc.memoize = false;
    core::RtPredictor plain(profiler, nullptr, nullptr, rc);
    Stopwatch sw_plain;
    const core::PolicyExploration base = explore_policies(plain, cond, ec);
    const double plain_s = sw_plain.seconds();

    rc.memoize = true;
    core::RtPredictor memo(profiler, nullptr, nullptr, rc);
    Stopwatch sw_memo;
    const core::PolicyExploration cached = explore_policies(memo, cond, ec);
    const double memo_s = sw_memo.seconds();

    const auto st = memo.cache_stats();
    bool identical =
        base.selection.timeout_primary == cached.selection.timeout_primary &&
        base.selection.timeout_collocated ==
            cached.selection.timeout_collocated;
    for (std::size_t i = 0;
         identical && i < base.predicted_primary.data().size(); ++i)
      identical = base.predicted_primary.data()[i] ==
                      cached.predicted_primary.data()[i] &&
                  base.predicted_collocated.data()[i] ==
                      cached.predicted_collocated.data()[i];
    const double speedup = plain_s / memo_s;
    JsonObject s;
    s.set("grid_cells", ec.grid.size() * ec.grid.size())
        .set("unmemoized_s", plain_s)
        .set("memoized_s", memo_s)
        .set("speedup", speedup)
        .set("rt_cache_hits", static_cast<std::size_t>(st.hits))
        .set("rt_cache_misses", static_cast<std::size_t>(st.misses))
        .set("sim_requests", static_cast<std::size_t>(st.hits + st.misses))
        .set("rt_cache_hit_rate", st.hit_rate())
        .set("same_selection", identical);
    record.set("policy_sweep_memo", s);
    table.add_row({"policy sweep (memoized)", Table::num(plain_s, 3) + "s",
                   Table::num(memo_s, 3) + "s", Table::num(speedup, 2),
                   identical ? "yes" : "NO"});
  }

  table.print(std::cout);
  table.write_csv(csv_path(argv[0]));
  write_bench_section(args.json_path, "bench_sim_core", record);
  return 0;
}
