#include "core/policy_explorer.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stac::core {

using profiler::RuntimeCondition;

void validate_explorer_config(const ExplorerConfig& config) {
  STAC_REQUIRE_MSG(!config.grid.empty(),
                   "ExplorerConfig.grid must be non-empty");
  for (std::size_t i = 0; i < config.grid.size(); ++i) {
    STAC_REQUIRE_MSG(std::isfinite(config.grid[i]),
                     "ExplorerConfig.grid["
                         << i << "] = " << config.grid[i]
                         << " is not finite");
    STAC_REQUIRE_MSG(i == 0 || config.grid[i - 1] < config.grid[i],
                     "ExplorerConfig.grid must be strictly ascending (grid["
                         << i - 1 << "] = " << config.grid[i - 1]
                         << " >= grid[" << i << "] = " << config.grid[i]
                         << ")");
  }
}

void select_policy(const ExplorerConfig& config, PolicyExploration& out) {
  const std::size_t g = config.grid.size();
  double best_p = std::numeric_limits<double>::infinity();
  double best_c = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      best_p = std::min(best_p, out.predicted_primary(i, j));
      best_c = std::min(best_c, out.predicted_collocated(i, j));
    }
  }

  double slack = config.slack;
  for (std::size_t attempt = 0; attempt <= config.max_relaxations; ++attempt) {
    // Step 1 sets + Step 2 intersection in one sweep.
    double best_sum = std::numeric_limits<double>::infinity();
    std::size_t best_i = g, best_j = g;
    for (std::size_t i = 0; i < g; ++i) {
      for (std::size_t j = 0; j < g; ++j) {
        const double rp = out.predicted_primary(i, j);
        const double rc = out.predicted_collocated(i, j);
        if (rp > best_p * (1.0 + slack)) continue;
        if (rc > best_c * (1.0 + slack)) continue;
        if (rp + rc < best_sum) {
          best_sum = rp + rc;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i < g) {
      out.selection.name = "model-driven";
      out.selection.timeout_primary = config.grid[best_i];
      out.selection.timeout_collocated = config.grid[best_j];
      out.slack_used = slack;
      return;
    }
    slack *= config.slack_growth;
  }

  // Matching failed even after relaxation: minimize the combined predicted
  // response time outright.
  double best_sum = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0, best_j = 0;
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      const double sum =
          out.predicted_primary(i, j) + out.predicted_collocated(i, j);
      if (sum < best_sum) {
        best_sum = sum;
        best_i = i;
        best_j = j;
      }
    }
  }
  out.selection.name = "model-driven";
  out.selection.timeout_primary = config.grid[best_i];
  out.selection.timeout_collocated = config.grid[best_j];
  out.slack_used = slack;
}

namespace {

/// Evaluate the given cells (cell = i * g + j) into out's matrices, pool-
/// parallel or serially.  Every cell's two predictions depend only on
/// (condition, grid[i], grid[j]) and the predictor is pure, so scheduling
/// and cell order never change the values.
void sweep_cells(const RtPredictor& predictor,
                 const RuntimeCondition& condition,
                 const ExplorerConfig& config,
                 const std::vector<std::size_t>& cells,
                 PolicyExploration& out) {
  if (cells.empty()) return;
  const std::size_t g = config.grid.size();

  // One task per grid cell; each writes only its own two matrix slots and
  // RtPredictor::predict is const and self-seeded, so scheduling cannot
  // change the outcome.
  auto eval_cell = [&](std::size_t idx) {
    STAC_TRACE_SPAN(cell_span, "explore.cell", "explore");
    const std::size_t i = cells[idx] / g;
    const std::size_t j = cells[idx] % g;
    cell_span.arg("timeout_primary", config.grid[i]);
    cell_span.arg("timeout_collocated", config.grid[j]);
    cell_span.arg("worker",
                  static_cast<std::uint64_t>(ThreadPool::worker_index()));
    RuntimeCondition c = condition;
    c.timeout_primary = config.grid[i];
    c.timeout_collocated = config.grid[j];
    out.predicted_primary(i, j) = predictor.predict(c).norm_p95_rt;
    out.predicted_collocated(i, j) =
        predictor.predict(c.swapped()).norm_p95_rt;
  };
  if (config.parallel && cells.size() > 1) {
    ThreadPool& pool = config.pool ? *config.pool : ThreadPool::global();
    pool.parallel_for(0, cells.size(), eval_cell);
  } else {
    for (std::size_t idx = 0; idx < cells.size(); ++idx) eval_cell(idx);
  }
}

/// Reuse accounting shared by both entry points: the sim cache's hits and
/// misses, and how many EA queries reused a training image's MGS features
/// vs scanned (DESIGN.md §10).  The MGS counts are process-wide obs
/// counters, so they only move with obs on and include any concurrent
/// sweep's queries.
class SweepReuse {
 public:
  explicit SweepReuse(const RtPredictor& predictor)
      : predictor_(predictor), cache_before_(predictor.cache_stats()),
        mgs_reused_before_(counter("ml.mgs_reused")),
        mgs_scanned_before_(counter("ml.mgs_scanned")) {}

  void note(obs::TraceSpan& span) const {
    const RtPredictionCache::Stats after = predictor_.cache_stats();
    const RtPredictionCache::Stats delta{after.hits - cache_before_.hits,
                                         after.misses - cache_before_.misses};
    span.arg("sim_cache_hits", delta.hits);
    span.arg("sim_cache_misses", delta.misses);
    if (delta.hits + delta.misses > 0)
      obs::set_gauge("explore.sim_cache_hit_rate", delta.hit_rate());
    span.arg("mgs_reused", counter("ml.mgs_reused") - mgs_reused_before_);
    span.arg("mgs_scanned", counter("ml.mgs_scanned") - mgs_scanned_before_);
  }

 private:
  static std::uint64_t counter(std::string_view name) {
    return obs::MetricsRegistry::global().counter_value(name);
  }

  const RtPredictor& predictor_;
  RtPredictionCache::Stats cache_before_;
  std::uint64_t mgs_reused_before_;
  std::uint64_t mgs_scanned_before_;
};

[[nodiscard]] std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

/// Memo-validity half of the reuse rule: the epoch condition must match the
/// memoed one bit-for-bit in every field a grid cell does NOT overwrite.
/// (Timeouts are per-cell; everything else flows into the predictions.)
[[nodiscard]] bool same_condition_modulo_timeouts(const RuntimeCondition& a,
                                                  const RuntimeCondition& b) {
  return a.primary == b.primary && a.collocated == b.collocated &&
         bits(a.util_primary) == bits(b.util_primary) &&
         bits(a.util_collocated) == bits(b.util_collocated) &&
         bits(a.sampling_rel) == bits(b.sampling_rel) &&
         bits(a.mix_primary) == bits(b.mix_primary) &&
         bits(a.mix_collocated) == bits(b.mix_collocated) &&
         bits(a.churn) == bits(b.churn) && a.seed == b.seed;
}

}  // namespace

PolicyExploration explore_policies(const RtPredictor& predictor,
                                   const RuntimeCondition& condition,
                                   const ExplorerConfig& config) {
  validate_explorer_config(config);
  const std::size_t g = config.grid.size();
  STAC_TRACE_SPAN(sweep_span, "explore.sweep", "explore");
  sweep_span.arg("grid", static_cast<std::uint64_t>(g));
  sweep_span.arg("cells", static_cast<std::uint64_t>(g * g));
  const SweepReuse reuse(predictor);
  PolicyExploration out;
  out.predicted_primary = Matrix(g, g);
  out.predicted_collocated = Matrix(g, g);

  std::vector<std::size_t> all_cells(g * g);
  for (std::size_t cell = 0; cell < g * g; ++cell) all_cells[cell] = cell;
  sweep_cells(predictor, condition, config, all_cells, out);
  out.predictions_made = 2 * g * g;
  out.cells_simulated = g * g;
  obs::count("explore.cells_simulated", g * g);

  // How much of the sweep the simulation memoizer absorbed (the grid cells
  // share seeds and, with analytic EA, whole configs — DESIGN.md §10), and
  // how many EA queries reused training-time MGS features.
  reuse.note(sweep_span);

  select_policy(config, out);
  return out;
}

PolicyExploration explore_policies_incremental(const RtPredictor& predictor,
                                               const RuntimeCondition& condition,
                                               const ExplorerConfig& config,
                                               ExplorationMemo& memo,
                                               std::uint64_t generation) {
  validate_explorer_config(config);
  const std::size_t g = config.grid.size();
  STAC_TRACE_SPAN(sweep_span, "explore.sweep_incremental", "explore");
  sweep_span.arg("grid", static_cast<std::uint64_t>(g));
  const SweepReuse reuse(predictor);
  PolicyExploration out;
  out.predicted_primary = Matrix(g, g);
  out.predicted_collocated = Matrix(g, g);

  // Reuse rule (DESIGN.md §13): memoed values answer a cell only when the
  // model generation and the condition-sans-timeouts are unchanged AND the
  // cell's (grid_i, grid_j) pair exists in the memoed grid.  Anything else
  // — refit, drifted estimate, new grid point — re-simulates.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  // Geometry guard: a memo whose matrices do not match its own grid (a
  // partially-initialized or hand-tampered memo after a grid-config change
  // mid-run) must never be indexed — reads past a smaller matrix would
  // serve garbage predictions as "reused" cells.
  const bool memo_geometry_ok =
      memo.predicted_primary.rows() == memo.grid.size() &&
      memo.predicted_primary.cols() == memo.grid.size() &&
      memo.predicted_collocated.rows() == memo.grid.size() &&
      memo.predicted_collocated.cols() == memo.grid.size();
  const bool memo_usable = memo.valid && memo_geometry_ok &&
                           memo.generation == generation &&
                           same_condition_modulo_timeouts(memo.condition,
                                                          condition);
  std::vector<std::size_t> memo_index(g, kNone);
  if (memo_usable) {
    for (std::size_t i = 0; i < g; ++i)
      for (std::size_t m = 0; m < memo.grid.size(); ++m)
        if (bits(memo.grid[m]) == bits(config.grid[i])) {
          memo_index[i] = m;
          break;
        }
  }

  std::vector<std::size_t> pending;
  for (std::size_t cell = 0; cell < g * g; ++cell) {
    const std::size_t i = cell / g;
    const std::size_t j = cell % g;
    if (memo_index[i] != kNone && memo_index[j] != kNone) {
      out.predicted_primary(i, j) =
          memo.predicted_primary(memo_index[i], memo_index[j]);
      out.predicted_collocated(i, j) =
          memo.predicted_collocated(memo_index[i], memo_index[j]);
    } else {
      pending.push_back(cell);
    }
  }
  sweep_cells(predictor, condition, config, pending, out);

  out.predictions_made = 2 * pending.size();
  out.cells_simulated = pending.size();
  out.cells_reused = g * g - pending.size();
  sweep_span.arg("cells_simulated",
                 static_cast<std::uint64_t>(out.cells_simulated));
  sweep_span.arg("cells_reused", static_cast<std::uint64_t>(out.cells_reused));
  obs::count("explore.cells_simulated", out.cells_simulated);
  obs::count("explore.cells_reused", out.cells_reused);
  reuse.note(sweep_span);

  select_policy(config, out);

  // The selection never feeds back into the matrices, so the memo can hold
  // this epoch's full sweep regardless of what the caller does with it
  // (even a discarded-on-deadline plan memoizes valid predictions).
  memo.valid = true;
  memo.generation = generation;
  memo.condition = condition;
  memo.condition.timeout_primary = 0.0;
  memo.condition.timeout_collocated = 0.0;
  memo.grid = config.grid;
  memo.predicted_primary = out.predicted_primary;
  memo.predicted_collocated = out.predicted_collocated;
  return out;
}

ExplorationMemoPool::ExplorationMemoPool(std::size_t capacity)
    : capacity_(capacity), slots_(std::max<std::size_t>(1, capacity)) {}

ExplorationMemo& ExplorationMemoPool::acquire(
    const RuntimeCondition& condition) {
  ++tick_;
  if (capacity_ == 0) {
    // Memoing disabled: hand back the scratch slot reset to cold, every
    // time.  The caller's incremental sweep then simulates every cell and
    // whatever it writes into the memo is discarded at the next acquire.
    slots_.front().memo = ExplorationMemo{};
    return slots_.front().memo;
  }
  Slot* lru = &slots_.front();
  for (Slot& slot : slots_) {
    if (slot.memo.valid &&
        same_condition_modulo_timeouts(slot.memo.condition, condition)) {
      slot.last_used = tick_;
      return slot.memo;
    }
    if (slot.last_used < lru->last_used) lru = &slot;
  }
  lru->last_used = tick_;
  lru->memo = ExplorationMemo{};
  return lru->memo;
}

}  // namespace stac::core
