#include "profiler/profiler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "cat/cat_controller.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "wl/access_stream.hpp"

namespace stac::profiler {

using cachesim::CacheHierarchy;
using cachesim::Counter;
using cachesim::CounterSnapshot;
using cachesim::kCounterCount;

namespace {

wl::WorkloadSpec scale_spec(const wl::WorkloadSpec& spec, double scale) {
  wl::WorkloadSpec s = spec;
  for (auto& c : s.profile.components) c.ws_bytes /= scale;
  s.profile.code_bytes = std::max(4096.0, s.profile.code_bytes / scale);
  s.zipf_records = std::max<std::size_t>(
      64, static_cast<std::size_t>(
              static_cast<double>(s.zipf_records) / scale));
  return s;
}

cachesim::HierarchyConfig scale_hw(const cachesim::HierarchyConfig& hw,
                                   double scale) {
  cachesim::HierarchyConfig s = hw;
  const auto f = static_cast<std::size_t>(scale);
  STAC_REQUIRE_MSG(std::has_single_bit(f), "counter_scale must be 2^k");
  s.llc.size_bytes /= f;
  s.l2.size_bytes /= f;
  s.l1d.size_bytes = std::max<std::size_t>(s.l1d.size_bytes / f,
                                           s.l1d.ways * s.l1d.line_bytes);
  s.l1i.size_bytes = std::max<std::size_t>(s.l1i.size_bytes / f,
                                           s.l1i.ways * s.l1i.line_bytes);
  // A stacked DRAM-cache tier scales with the rest of the hierarchy so its
  // hit ratio (and thus the modeled-time signature) is preserved.
  if (s.timing.dram_cache.has_value())
    s.timing.dram_cache->geometry.size_bytes /= f;
  STAC_REQUIRE_MSG(s.valid(), "scaled hierarchy geometry invalid");
  return s;
}

}  // namespace

Profiler::Profiler(ProfilerConfig config)
    : config_(std::move(config)),
      plan_(cat::make_pair_plan(
          static_cast<std::uint32_t>(config_.hw.llc.ways),
          config_.private_ways, config_.shared_ways)),
      scaled_hw_(scale_hw(config_.hw, config_.counter_scale)) {
  const double way_bytes = static_cast<double>(config_.hw.llc_way_bytes());
  models_.reserve(wl::kBenchmarkCount);
  scaled_specs_.reserve(wl::kBenchmarkCount);
  for (wl::Benchmark b : wl::all_benchmarks()) {
    models_.push_back(wl::make_model(b, config_.hw.llc.ways, way_bytes,
                                     config_.private_ways));
    scaled_specs_.push_back(
        scale_spec(wl::benchmark_spec(b), config_.counter_scale));
  }
}

const wl::WorkloadModel& Profiler::model(wl::Benchmark b) const {
  return models_[static_cast<std::size_t>(b)];
}

Profiler::PairScales Profiler::pair_scales(wl::Benchmark primary,
                                           wl::Benchmark collocated) const {
  const double bp = model(primary).baseline_service_time();
  const double bc = model(collocated).baseline_service_time();
  const double bmin = std::min(bp, bc);
  PairScales s;
  s.scaled_base_primary = std::min(bp / bmin, config_.max_pair_ratio);
  s.scaled_base_collocated = std::min(bc / bmin, config_.max_pair_ratio);
  s.scale_primary = s.scaled_base_primary / bp;
  s.scale_collocated = s.scaled_base_collocated / bc;
  return s;
}

wl::WorkloadModel Profiler::make_mixed_model(wl::Benchmark b,
                                             double mix) const {
  STAC_REQUIRE(mix > 0.0);
  wl::WorkloadSpec spec = wl::benchmark_spec(b);
  for (auto& c : spec.profile.components) c.ws_bytes *= mix;
  return wl::WorkloadModel(spec, config_.hw.llc.ways,
                           static_cast<double>(config_.hw.llc_way_bytes()),
                           config_.private_ways);
}

queueing::TestbedConfig Profiler::make_testbed_config(
    const RuntimeCondition& condition, double timeout_primary,
    double timeout_collocated,
    std::vector<std::unique_ptr<wl::WorkloadModel>>& owned_models) const {
  const PairScales scales = pair_scales(condition.primary,
                                        condition.collocated);
  auto model_for = [&](wl::Benchmark b, double mix) -> const wl::WorkloadModel* {
    if (mix == 1.0) return &model(b);
    owned_models.push_back(
        std::make_unique<wl::WorkloadModel>(make_mixed_model(b, mix)));
    return owned_models.back().get();
  };
  queueing::TestbedConfig cfg;
  queueing::TestbedWorkload wp;
  wp.model = model_for(condition.primary, condition.mix_primary);
  wp.utilization = condition.util_primary;
  wp.servers = config_.servers;
  wp.time_scale = scales.scale_primary;
  queueing::TestbedWorkload wc;
  wc.model = model_for(condition.collocated, condition.mix_collocated);
  wc.utilization = condition.util_collocated;
  wc.servers = config_.servers;
  wc.time_scale = scales.scale_collocated;
  cfg.workloads = {wp, wc};
  cfg.staps =
      cat::make_stap_vector(plan_, {timeout_primary, timeout_collocated});
  cfg.target_completions = config_.target_completions;
  cfg.warmup_completions = config_.warmup_completions;
  cfg.occupancy_response = config_.occupancy_response;
  cfg.background_churn = condition.churn;
  cfg.seed = condition.seed;
  return cfg;
}

std::vector<double> Profiler::static_features(
    const RuntimeCondition& condition) const {
  const double ratio =
      static_cast<double>(config_.private_ways + config_.shared_ways) /
      static_cast<double>(config_.private_ways);
  // Deliberately only *configuration knobs* the operator actually sets
  // (Table 2): arrival rates, timeouts, allocation geometry, known service
  // baselines.  Everything micro-architectural (miss ratios, memory
  // boundedness, contention behaviour) must be learned from the counter
  // image — that is the paper's point, and hand-feeding derived workload
  // descriptors here would let even linear models shortcut Stage 2.
  std::vector<double> f{
      condition.util_primary,    condition.timeout_primary,
      condition.util_collocated, condition.timeout_collocated,
      static_cast<double>(config_.private_ways),
      static_cast<double>(config_.shared_ways),
      ratio,
  };
  for (const wl::Benchmark b : {condition.primary, condition.collocated}) {
    const wl::WorkloadModel& m = model(b);
    f.push_back(std::log10(m.baseline_service_time()));
    f.push_back(m.spec().use_microservice_graph ? 0.55 : m.spec().service_cv);
  }
  return f;
}

std::vector<std::string> Profiler::static_feature_names() {
  return {"util_p",        "timeout_p",    "util_c",       "timeout_c",
          "private_ways",  "shared_ways",  "alloc_ratio",
          "p_log_service", "p_service_cv", "c_log_service",
          "c_service_cv"};
}

std::vector<std::string> Profiler::dynamic_feature_names() {
  return {"p_norm_queue_delay", "p_boost_frac", "c_norm_queue_delay",
          "c_boost_frac"};
}

Matrix Profiler::render_image(const queueing::TestbedResult& result,
                              std::size_t col_begin, std::size_t cols,
                              const RuntimeCondition& condition) const {
  Matrix image(2 * kCounterCount, cols);
  replay_columns(result, col_begin, cols, condition, &image);
  return image;
}

double Profiler::modeled_cycles_per_access(
    const queueing::TestbedResult& result,
    const RuntimeCondition& condition) const {
  const std::size_t usable =
      result.trace.size() >= 2 ? result.trace.size() - 2 : 0;
  const std::size_t cols =
      std::min(usable, config_.max_windows * config_.image_cols);
  if (cols == 0) return 0.0;
  const std::size_t begin = result.trace.size() - cols;
  return replay_columns(result, begin, cols, condition, nullptr);
}

double Profiler::replay_columns(const queueing::TestbedResult& result,
                                std::size_t col_begin, std::size_t cols,
                                const RuntimeCondition& condition,
                                Matrix* image) const {
  // Replay the dynamic trace through the scaled cache simulator with CAT
  // masks tracking the recorded boost states.
  // Class 2 models the background churn: un-tracked node activity that
  // streams through the shared ways at the condition's churn intensity.
  // Its traffic is what imprints the churn level onto the two services'
  // counters (shared-way evictions, extra LLC misses).
  obs::count("profiler.replays");
  CacheHierarchy hw(scaled_hw_, 3);
  cat::CatController cat(hw, plan_);
  {
    cachesim::WayMask shared_mask = 0;
    for (std::uint32_t way : plan_.shared_ways(0))
      shared_mask |= cachesim::WayMask{1} << way;
    hw.set_llc_fill_mask(2, shared_mask);
  }
  wl::ReuseProfile churn_profile;
  churn_profile.streaming_fraction = 1.0;
  churn_profile.ifetch_per_access = 0.0;
  wl::SyntheticStream churn_stream(
      churn_profile, wl::kClassAddressStride * 16, condition.seed ^ 0x777ULL);
  const auto churn_refs = static_cast<std::size_t>(
      static_cast<double>(config_.accesses_per_sample) * condition.churn);
  // Apply the condition's query mix to the scaled-down specs so the
  // counter image carries the mix signature (larger hot sets -> more LLC
  // misses per sample).
  wl::WorkloadSpec spec_p =
      scaled_specs_[static_cast<std::size_t>(condition.primary)];
  for (auto& c : spec_p.profile.components) c.ws_bytes *= condition.mix_primary;
  wl::WorkloadSpec spec_c =
      scaled_specs_[static_cast<std::size_t>(condition.collocated)];
  for (auto& c : spec_c.profile.components)
    c.ws_bytes *= condition.mix_collocated;

  auto make_stream = [&](const wl::WorkloadSpec& spec, std::uint16_t cls,
                         std::uint64_t seed)
      -> std::unique_ptr<cachesim::AccessStream> {
    const std::uint64_t base =
        wl::kClassAddressStride * (static_cast<std::uint64_t>(cls) + 1);
    if (spec.stream_kind == wl::StreamKind::kZipf)
      return std::make_unique<wl::ZipfStream>(
          spec.zipf_records, spec.zipf_record_bytes, spec.zipf_alpha,
          spec.profile.store_fraction, base, seed);
    return std::make_unique<wl::SyntheticStream>(spec.profile, base, seed);
  };
  auto stream_p = make_stream(spec_p, 0, condition.seed ^ 0xA5A5A5A5ULL);
  auto stream_c = make_stream(spec_c, 1, condition.seed ^ 0x5A5A5A5AULL);

  CounterSnapshot prev_p = hw.counters(0);
  CounterSnapshot prev_c = hw.counters(1);

  // Warm the caches before the first rendered column so compulsory misses
  // do not masquerade as contention.
  const std::size_t warm = config_.accesses_per_sample;
  for (std::size_t i = 0; i < warm; ++i) {
    hw.access(0, stream_p->next());
    hw.access(1, stream_c->next());
  }
  hw.retire_instructions(0, warm * 4);
  hw.retire_instructions(1, warm * 4);
  prev_p = hw.counters(0);
  prev_c = hw.counters(1);
  // Post-warmup modeled-time baseline for the primary: the cycles-per-
  // access label must cover only the rendered (steady-state) columns.
  const cachesim::CycleBreakdown warm_cycles = hw.cycles(0);

  for (std::size_t col = 0; col < cols; ++col) {
    const auto& sample = result.trace[col_begin + col];
    const auto& tp = sample.per_workload[0];
    const auto& tc = sample.per_workload[1];

    // Track boost state with the pqos-like controller.
    if (tp.boosted != cat.is_boosted(0)) {
      if (tp.boosted)
        cat.boost(0);
      else
        cat.reset_boost(0);
    }
    if (tc.boosted != cat.is_boosted(1)) {
      if (tc.boosted)
        cat.boost(1);
      else
        cat.reset_boost(1);
    }

    // Reference counts proportional to execution activity this interval.
    const auto servers = static_cast<double>(config_.servers);
    const auto refs_p = static_cast<std::size_t>(
        static_cast<double>(config_.accesses_per_sample) *
        std::max(0.05, static_cast<double>(tp.busy) / servers));
    const auto refs_c = static_cast<std::size_t>(
        static_cast<double>(config_.accesses_per_sample) *
        std::max(0.05, static_cast<double>(tc.busy) / servers));

    // Interleave in small chunks so fills contend realistically; the churn
    // class streams alongside at the condition's intensity.
    std::size_t done_p = 0, done_c = 0, done_b = 0;
    constexpr std::size_t kChunk = 64;
    while (done_p < refs_p || done_c < refs_c || done_b < churn_refs) {
      for (std::size_t i = 0; i < kChunk && done_p < refs_p; ++i, ++done_p)
        hw.access(0, stream_p->next());
      for (std::size_t i = 0; i < kChunk && done_c < refs_c; ++i, ++done_c)
        hw.access(1, stream_c->next());
      for (std::size_t i = 0; i < kChunk && done_b < churn_refs;
           ++i, ++done_b)
        hw.access(2, churn_stream.next());
    }
    hw.retire_instructions(0, refs_p * 4);
    hw.retire_instructions(1, refs_c * 4);

    if (image != nullptr) {
      const CounterSnapshot now_p = hw.counters(0);
      const CounterSnapshot now_c = hw.counters(1);
      const CounterSnapshot dp = now_p.delta_since(prev_p);
      const CounterSnapshot dc = now_c.delta_since(prev_c);
      prev_p = now_p;
      prev_c = now_c;

      for (std::size_t i = 0; i < kCounterCount; ++i) {
        (*image)(i, col) = static_cast<double>(dp.values[i]);
        (*image)(kCounterCount + i, col) = static_cast<double>(dc.values[i]);
      }
    }
  }
  const cachesim::CycleBreakdown end_cycles = hw.cycles(0);
  const std::uint64_t accesses = end_cycles.accesses - warm_cycles.accesses;
  if (accesses == 0) return 0.0;
  return static_cast<double>(end_cycles.total() - warm_cycles.total()) /
         static_cast<double>(accesses);
}

std::vector<Profile> Profiler::profile_condition(
    const RuntimeCondition& condition) const {
  STAC_TRACE_SPAN(span, "profile.condition", "profiler");
  span.arg("util_primary", condition.util_primary);
  span.arg("util_collocated", condition.util_collocated);
  span.arg("worker", static_cast<std::uint64_t>(ThreadPool::worker_index()));
  std::vector<std::unique_ptr<wl::WorkloadModel>> owned;
  // Policy run with tracing.
  queueing::TestbedConfig policy_cfg =
      make_testbed_config(condition, condition.timeout_primary,
                          condition.timeout_collocated, owned);
  const PairScales scales =
      pair_scales(condition.primary, condition.collocated);
  policy_cfg.sample_interval =
      scales.scaled_base_primary / std::max(0.1, condition.sampling_rel);
  queueing::Testbed policy_bed(policy_cfg);
  const queueing::TestbedResult policy = policy_bed.run();

  // Default (never boost) run, same seed: the Eq. 3 denominator.
  queueing::TestbedConfig default_cfg =
      make_testbed_config(condition, cat::kNeverBoostTimeout,
                          cat::kNeverBoostTimeout, owned);
  queueing::Testbed default_bed(default_cfg);
  const queueing::TestbedResult dflt = default_bed.run();

  // Always-boost run (primary timeout 0, neighbour unchanged): the
  // potential-EA learning target.
  queueing::TestbedConfig boost_cfg = make_testbed_config(
      condition, 0.0, condition.timeout_collocated, owned);
  queueing::Testbed boost_bed(boost_cfg);
  const queueing::TestbedResult boosted = boost_bed.run();

  // Under heavy fault injection a run can complete zero queries of the
  // primary workload; effective_allocation() contracts on positive mean
  // service times, and a profile built from empty sample sets would feed
  // NaN targets into training.  Skip the condition instead of throwing.
  if (policy.per_workload[0].completed == 0 ||
      dflt.per_workload[0].completed == 0 ||
      boosted.per_workload[0].completed == 0) {
    obs::count("profiler.conditions_skipped_zero_completions");
    obs::instant("profile.zero_completions", "profiler");
    return {};
  }

  const double ratio =
      static_cast<double>(config_.private_ways + config_.shared_ways) /
      static_cast<double>(config_.private_ways);
  double ea = queueing::Testbed::effective_allocation(
      policy.per_workload[0].service_durations.mean(),
      dflt.per_workload[0].service_durations.mean(), ratio);
  double ea_boost = queueing::Testbed::effective_allocation(
      boosted.per_workload[0].service_durations.mean(),
      dflt.per_workload[0].service_durations.mean(), ratio);
  if (config_.ea_mode == EaMode::kModeledTime) {
    // Eq. 3 with modeled memory time per access substituted for service
    // duration: replay the three runs' traces through the timing-accurate
    // scaled hierarchy and compare contended memory time instead of the
    // queueing testbed's service-duration proxy.  The reference runs go
    // first: the policy trace is replayed only when both of theirs were, so
    // no replay runs whose result is dropped.
    const double cpa_default = modeled_cycles_per_access(dflt, condition);
    const double cpa_boost = modeled_cycles_per_access(boosted, condition);
    const double cpa_policy =
        cpa_default > 0.0 && cpa_boost > 0.0
            ? modeled_cycles_per_access(policy, condition)
            : 0.0;
    if (cpa_policy > 0.0) {
      ea = queueing::Testbed::effective_allocation(cpa_policy, cpa_default,
                                                   ratio);
      ea_boost = queueing::Testbed::effective_allocation(cpa_boost,
                                                         cpa_default, ratio);
    } else {
      // A trace too short to replay — today always the reference runs',
      // which are not traced — keeps the service-duration labels.
      obs::count("profiler.ea_modeled_time_fallback");
    }
  }

  // Split the trace into image windows (discard the earliest columns as
  // testbed warmup).
  const std::size_t cols = config_.image_cols;
  std::vector<Profile> out;
  if (policy.trace.size() < cols + 2) return out;
  const std::size_t usable = policy.trace.size() - 2;
  const std::size_t max_windows =
      std::min(config_.max_windows, usable / cols);
  if (max_windows == 0) return out;
  const std::size_t first =
      policy.trace.size() - max_windows * cols;  // favour steady state

  const std::vector<double> statics = static_features(condition);
  for (std::size_t wnd = 0; wnd < max_windows; ++wnd) {
    const std::size_t begin = first + wnd * cols;
    Profile p;
    p.condition = condition;
    p.image = render_image(policy, begin, cols, condition);
    p.statics = statics;

    // Window dynamics: queue delay via Little's law on the waiting room,
    // normalized by each service's scaled base time; boost fraction.
    double q_p = 0.0, q_c = 0.0, boost_p = 0.0, boost_c = 0.0;
    for (std::size_t col = 0; col < cols; ++col) {
      const auto& s = policy.trace[begin + col];
      q_p += s.per_workload[0].queued;
      q_c += s.per_workload[1].queued;
      boost_p += s.per_workload[0].boosted ? 1.0 : 0.0;
      boost_c += s.per_workload[1].boosted ? 1.0 : 0.0;
    }
    const auto n = static_cast<double>(cols);
    const double lambda_p = condition.util_primary *
                            static_cast<double>(config_.servers) /
                            scales.scaled_base_primary;
    const double lambda_c = condition.util_collocated *
                            static_cast<double>(config_.servers) /
                            scales.scaled_base_collocated;
    p.dynamics = {q_p / n / lambda_p / scales.scaled_base_primary,
                  boost_p / n,
                  q_c / n / lambda_c / scales.scaled_base_collocated,
                  boost_c / n};

    p.ea = ea;
    p.ea_boost = ea_boost;
    // completed > 0 was checked above, so the sample sets are non-empty;
    // percentile_or keeps this resilient if the guard ever moves.
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    p.mean_rt = policy.per_workload[0].response_times.mean();
    p.p95_rt = policy.per_workload[0].response_times.percentile_or(0.95, kNan);
    p.mean_rt_default = dflt.per_workload[0].response_times.mean();
    p.p95_rt_default =
        dflt.per_workload[0].response_times.percentile_or(0.95, kNan);
    p.mean_service = policy.per_workload[0].service_durations.mean();
    p.scaled_base_primary = scales.scaled_base_primary;
    p.allocation_ratio = ratio;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<Profile> Profiler::profile_conditions(
    const std::vector<RuntimeCondition>& conditions) const {
  STAC_TRACE_SPAN(span, "profile.conditions", "profiler");
  span.arg("conditions", static_cast<std::uint64_t>(conditions.size()));
  std::vector<std::vector<Profile>> buckets(conditions.size());
  ThreadPool::global().parallel_for(0, conditions.size(), [&](std::size_t i) {
    buckets[i] = profile_condition(conditions[i]);
  });
  std::vector<Profile> out;
  for (auto& b : buckets)
    for (auto& p : b) out.push_back(std::move(p));
  span.arg("profiles", static_cast<std::uint64_t>(out.size()));
  obs::count("profiler.profiles", out.size());
  return out;
}

ml::ProfileSample Profiler::to_sample(const Profile& profile,
                                      bool shuffle_rows,
                                      std::uint64_t shuffle_seed) {
  ml::ProfileSample s;
  s.tabular = profile.statics;
  s.tabular.insert(s.tabular.end(), profile.dynamics.begin(),
                   profile.dynamics.end());
  if (!shuffle_rows) {
    s.image = profile.image;
    return s;
  }
  // Fig. 7c ablation: destroy the grouped counter ordering.  The same seed
  // must be used for every sample so train and test agree on the layout.
  std::vector<std::size_t> rows(profile.image.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Rng rng(shuffle_seed);
  rng.shuffle(rows);
  Matrix shuffled(profile.image.rows(), profile.image.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto src = profile.image.row(rows[r]);
    std::copy(src.begin(), src.end(), shuffled.row(r).begin());
  }
  s.image = std::move(shuffled);
  return s;
}

}  // namespace stac::profiler
