#include "core/rt_predictor.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace stac::core {

using profiler::Profile;
using profiler::RuntimeCondition;
using queueing::GGkConfig;

const char* degradation_rung_name(DegradationRung rung) {
  switch (rung) {
    case DegradationRung::kPrimaryModel: return "primary-model";
    case DegradationRung::kLinearFallback: return "linear-fallback";
    case DegradationRung::kNearestNeighbor: return "nearest-neighbor";
    case DegradationRung::kConservative: return "conservative-static";
  }
  return "?";
}

RtPredictor::RtPredictor(const profiler::Profiler& profiler,
                         const EaModel* model, const ProfileLibrary* library,
                         RtPredictorConfig config)
    : profiler_(profiler), model_(model), library_(library),
      config_(config), sim_cache_(config.memoize, config.memoize_capacity) {
  if (!config_.analytic_ea) {
    const bool has_model = model_ != nullptr && model_->trained();
    const bool has_library = library_ != nullptr && !library_->empty();
    STAC_REQUIRE_MSG(has_model || has_library,
                     "RtPredictor needs at least one EA source (trained "
                     "model or non-empty profile library)");
  }
}

double RtPredictor::conservative_ea() const {
  // EA such that EA x allocation_ratio == 1: boosted execution proceeds at
  // the default rate.  Equivalent to a static allocation — the safe answer
  // when every predictive input is unavailable or suspect.
  const auto& cfg = profiler_.config();
  const double ratio =
      static_cast<double>(cfg.private_ways + cfg.shared_ways) /
      static_cast<double>(cfg.private_ways);
  return 1.0 / ratio;
}

double RtPredictor::neighbor_ea(const RuntimeCondition& condition) const {
  const auto nearest = library_->nearest_k(
      condition, std::max<std::size_t>(1, config_.ea_neighbors));
  STAC_REQUIRE(!nearest.empty());
  double sum = 0.0;
  for (const Profile* near : nearest) sum += near->ea_boost;
  return sum / static_cast<double>(nearest.size());
}

RtPredictor::EaQuery RtPredictor::ea_for(
    const RuntimeCondition& condition, const std::vector<double>& dynamics,
    std::size_t neighbor_cap) const {
  const std::size_t neighbors = std::max<std::size_t>(
      1, std::min(neighbor_cap, config_.ea_neighbors));
  const auto& cfg = profiler_.config();
  const double boosted_ways =
      static_cast<double>(cfg.private_ways + cfg.shared_ways);
  const double ratio =
      boosted_ways / static_cast<double>(cfg.private_ways);
  if (config_.analytic_ea) {
    // Contention-blind: solo MRC speedup over the allocation increase.
    return {profiler_.model(condition.primary).speedup(boosted_ways) / ratio,
            DegradationRung::kPrimaryModel};
  }
  // The learned target EA0 is measured at the always-boost counterpart and
  // therefore independent of the primary's own timeout; canonicalizing the
  // query's timeout removes spurious jitter between policy-grid rows (the
  // nearest-profile lookup and the timeout static would otherwise both
  // wiggle the prediction for what is one underlying quantity).
  RuntimeCondition canonical = condition;
  canonical.timeout_primary = 0.0;

  // Degradation ladder: learned model → linear fallback → library
  // neighbours → conservative static.  A rung that throws anything but a
  // ContractViolation (stale model, injected "model.predict" fault) is
  // treated as unavailable and the query drops to the next rung.
  for (const auto& [ea_model, rung] :
       {std::pair{model_, DegradationRung::kPrimaryModel},
        std::pair{fallback_, DegradationRung::kLinearFallback}}) {
    if (ea_model == nullptr || !ea_model->trained()) continue;
    try {
      // Borrow neighbours' images; use the queried condition's statics and
      // the feedback-loop dynamics.  Averaging over several library
      // neighbours smooths the image-borrowing jitter between grid cells.
      // The image is left bit-for-bit the neighbour's, so a deep forest
      // trained on it reuses its training-time window features.
      const auto nearest = library_->nearest_k(canonical, neighbors);
      STAC_REQUIRE(!nearest.empty());
      // Tabular part in Profiler::to_sample's layout: statics, dynamics.
      std::vector<double> tabular = profiler_.static_features(canonical);
      tabular.insert(tabular.end(), dynamics.begin(), dynamics.end());
      double sum = 0.0;
      for (const Profile* near : nearest) {
        ml::ProfileSample sample = ea_model->make_sample(*near);
        sample.tabular = tabular;
        sum += ea_model->predict(sample);
      }
      return {sum / static_cast<double>(nearest.size()), rung};
    } catch (const ContractViolation&) {
      throw;  // programming bug, not an environment failure
    } catch (const std::exception&) {
      // fall through to the next rung
    }
  }
  if (library_ != nullptr && !library_->empty())
    return {neighbor_ea(canonical), DegradationRung::kNearestNeighbor};
  return {conservative_ea(), DegradationRung::kConservative};
}

RtPrediction RtPredictor::predict_for_profile(
    const profiler::Profile& profile) const {
  const RuntimeCondition& condition = profile.condition;
  const auto& cfg = profiler_.config();
  const auto scales =
      profiler_.pair_scales(condition.primary, condition.collocated);
  const double ratio =
      static_cast<double>(cfg.private_ways + cfg.shared_ways) /
      static_cast<double>(cfg.private_ways);
  const wl::WorkloadModel& wm = profiler_.model(condition.primary);
  const double cv =
      wm.spec().use_microservice_graph ? 0.55 : wm.spec().service_cv;

  RtPrediction out;
  if (config_.analytic_ea) {
    // Contention- and mix-blind solo speedup (the queue-model comparator).
    const double boosted_ways =
        static_cast<double>(cfg.private_ways + cfg.shared_ways);
    out.ea = wm.speedup(boosted_ways) / ratio;
  } else {
    // The model's target is the potential (always-boost) EA, predicted
    // on-distribution from the condition's own counters and dynamics —
    // with the same degradation ladder as exploration mode.
    out.ea = 0.0;
    out.rung = DegradationRung::kConservative;
    for (const auto& [ea_model, rung] :
         {std::pair{model_, DegradationRung::kPrimaryModel},
          std::pair{fallback_, DegradationRung::kLinearFallback}}) {
      if (ea_model == nullptr || !ea_model->trained()) continue;
      try {
        out.ea = ea_model->predict(ea_model->make_sample(profile));
        out.rung = rung;
        break;
      } catch (const ContractViolation&) {
        throw;
      } catch (const std::exception&) {
      }
    }
    if (out.rung == DegradationRung::kConservative) {
      if (library_ != nullptr && !library_->empty()) {
        out.ea = neighbor_ea(condition);
        out.rung = DegradationRung::kNearestNeighbor;
      } else {
        out.ea = conservative_ea();
      }
    }
  }

  GGkConfig g;
  g.utilization = condition.util_primary;
  g.servers = cfg.servers;
  g.mean_service = scales.scaled_base_primary;
  g.service_cv = cv;
  g.timeout_rel = condition.timeout_primary;
  g.effective_allocation = out.ea;
  g.allocation_ratio = ratio;
  // Measured boost prevalence is a dynamic condition input here.
  g.boost_prevalence = profile.dynamics.size() > 1 ? profile.dynamics[1] : 0.0;
  g.queries = config_.sim_queries;
  g.warmup = config_.sim_warmup;
  g.seed = config_.seed;
  const GGkSummary r = sim_cache_.simulate(g);
  out.mean_rt = r.mean_rt;
  out.p95_rt = r.p95_rt;
  out.mean_queue_delay = r.mean_queue_delay;
  out.boosted_fraction = r.boosted_fraction();
  out.norm_mean_rt = out.mean_rt / scales.scaled_base_primary;
  out.norm_p95_rt = out.p95_rt / scales.scaled_base_primary;
  return out;
}

DegradationRung RtPredictor::probe_rung(
    const RuntimeCondition& condition) const {
  // Same starting dynamics as predict(): nearest profiled condition, or
  // rest.  One ea_for walks the whole ladder — a faulting rung drops
  // through exactly as a full prediction's first query would.
  std::vector<double> dynamics{0.0, 0.0, 0.0, 0.0};
  if (library_ && !library_->empty()) {
    if (const Profile* near = library_->nearest(condition))
      dynamics = near->dynamics;
  }
  return ea_for(condition, dynamics, /*neighbor_cap=*/1).rung;
}

RtPrediction RtPredictor::predict(const RuntimeCondition& condition) const {
  const auto& cfg = profiler_.config();
  const auto scales =
      profiler_.pair_scales(condition.primary, condition.collocated);
  const double ratio =
      static_cast<double>(cfg.private_ways + cfg.shared_ways) /
      static_cast<double>(cfg.private_ways);

  const wl::WorkloadModel& wm = profiler_.model(condition.primary);
  const wl::WorkloadModel& wc = profiler_.model(condition.collocated);
  const double cv_p =
      wm.spec().use_microservice_graph ? 0.55 : wm.spec().service_cv;
  const double cv_c =
      wc.spec().use_microservice_graph ? 0.55 : wc.spec().service_cv;

  // Dynamic features start from the nearest profiled condition (or rest).
  std::vector<double> dynamics{0.0, 0.0, 0.0, 0.0};
  if (library_ && !library_->empty()) {
    if (const Profile* near = library_->nearest(condition))
      dynamics = near->dynamics;
  }

  RtPrediction out;
  double prevalence_p = 0.0, prevalence_c = 0.0;
  for (std::size_t iter = 0; iter < config_.feedback_iterations; ++iter) {
    const EaQuery eq = ea_for(condition, dynamics);
    out.ea = eq.ea;
    out.rung = std::max(out.rung, eq.rung);

    GGkConfig gp;
    gp.utilization = condition.util_primary;
    gp.servers = cfg.servers;
    gp.mean_service = scales.scaled_base_primary;
    gp.service_cv = cv_p;
    gp.timeout_rel = condition.timeout_primary;
    gp.effective_allocation = out.ea;
    gp.allocation_ratio = ratio;
    gp.boost_prevalence = prevalence_p;
    gp.queries = config_.sim_queries;
    gp.warmup = config_.sim_warmup;
    gp.seed = config_.seed + iter;
    const GGkSummary rp = sim_cache_.simulate(gp);
    out.mean_rt = rp.mean_rt;
    out.p95_rt = rp.p95_rt;
    out.mean_queue_delay = rp.mean_queue_delay;
    out.boosted_fraction = rp.boosted_fraction();

    // Collocated side, for its feedback features only.  Its EA query counts
    // toward the rung on every iteration, but the last iteration's run
    // would feed only the dynamics of an iteration that never comes.
    const RuntimeCondition swapped = condition.swapped();
    GGkConfig gc = gp;
    gc.utilization = swapped.util_primary;
    gc.mean_service = scales.scaled_base_collocated;
    gc.service_cv = cv_c;
    gc.timeout_rel = swapped.timeout_primary;
    {
      const EaQuery eqc =
          config_.analytic_ea
              ? ea_for(swapped, dynamics)
              : ea_for(swapped, {dynamics[2], dynamics[3], dynamics[0],
                                 dynamics[1]});
      gc.effective_allocation = eqc.ea;
      out.rung = std::max(out.rung, eqc.rung);
    }
    if (iter + 1 == config_.feedback_iterations) break;
    gc.boost_prevalence = prevalence_c;
    gc.seed = config_.seed + 1000 + iter;
    const GGkSummary rc = sim_cache_.simulate(gc);
    const double boost_c = rc.boosted_fraction();
    dynamics = {rp.mean_queue_delay / scales.scaled_base_primary,
                out.boosted_fraction,
                rc.mean_queue_delay / scales.scaled_base_collocated,
                boost_c};
    prevalence_p = out.boosted_fraction;
    prevalence_c = boost_c;
  }
  out.norm_mean_rt = out.mean_rt / scales.scaled_base_primary;
  out.norm_p95_rt = out.p95_rt / scales.scaled_base_primary;
  return out;
}

}  // namespace stac::core
