// Model-driven policy search (§5.2).
//
// The paper explores 25 timeout settings per cache-sharing pair (5 per
// workload) with the model — never the testbed — and picks the timeout
// vector by SLO-driven matching:
//   Step 1: per workload, keep settings whose predicted response time is
//           within 5% of the lowest found for that workload;
//   Step 2: choose a setting in the intersection of both kept sets
//           (relaxing the slack when the intersection is empty).
//
// Two sweep entry points share the prediction and selection code:
//   * explore_policies — evaluate every grid cell (parallel per-cell
//     predicts);
//   * explore_policies_incremental — diff the epoch's condition against an
//     ExplorationMemo and re-simulate only cells the memo cannot answer
//     (DESIGN.md §13).  Reuse is valid only when the model generation AND
//     the condition-sans-timeouts match bit-for-bit; a (grid_i, grid_j)
//     pair answers from the memo when both values appear in the memoed
//     grid.  Selections are bit-identical to a full sweep either way.
#pragma once

#include <cstdint>

#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/baselines.hpp"
#include "core/rt_predictor.hpp"

namespace stac::core {

struct ExplorerConfig {
  /// Timeout grid per workload (5 settings -> the paper's 25 pairs).
  /// Contract (validate_explorer_config): non-empty, every value finite,
  /// strictly ascending.
  std::vector<double> grid{0.0, 0.5, 1.0, 2.0, 4.0};
  /// Step-1 slack around each workload's best prediction.
  double slack = 0.05;
  /// Slack growth factor when the intersection is empty.
  double slack_growth = 2.0;
  std::size_t max_relaxations = 6;
  /// Evaluate the grid_p x grid_c cells concurrently: every cell's two
  /// G/G/k simulations are independent and internally seeded, and each cell
  /// writes only its own matrix slots, so the result is bit-identical to a
  /// serial sweep regardless of thread count.
  bool parallel = true;
  /// Pool for the sweep (tests vary thread counts); null = the global pool.
  ThreadPool* pool = nullptr;
};

struct PolicyExploration {
  PolicySelection selection;
  /// Predicted normalized p95 response time per (grid_p x grid_c) setting.
  Matrix predicted_primary;
  Matrix predicted_collocated;
  double slack_used = 0.0;
  std::size_t predictions_made = 0;
  /// Sweep-cost split (also the "explore.cells_simulated" /
  /// "explore.cells_reused" obs counters): cells evaluated through the
  /// predictor this call vs. answered from an ExplorationMemo.
  std::size_t cells_simulated = 0;
  std::size_t cells_reused = 0;
};

/// Prior-epoch sweep results explore_policies_incremental can reuse.  The
/// stored condition has its timeouts zeroed (each cell overwrites them), so
/// "same condition" means same pairing/utilization/mix/churn/seed bits;
/// `generation` is the caller's model-version stamp — bump it and every
/// memoed cell is dead (a refit changes predictions, not conditions).
struct ExplorationMemo {
  bool valid = false;
  std::uint64_t generation = 0;
  profiler::RuntimeCondition condition;
  std::vector<double> grid;
  Matrix predicted_primary;
  Matrix predicted_collocated;
};

/// Fixed-capacity set of ExplorationMemos keyed by condition-sans-timeouts.
/// A serving controller's quantized condition often oscillates among a
/// handful of recurring cells — an EWMA utilization estimate hovering at a
/// quantization boundary flips between the two adjacent cells indefinitely.
/// A single memo thrashes (every flip is a full sweep); a small pool gives
/// each recurring condition its own memo, so revisits answer incrementally.
/// acquire() returns the slot whose memo matches the condition, else
/// recycles the least-recently-used slot — a recycled slot simply starts
/// cold, because reuse validity (generation + condition + grid) is
/// re-checked inside explore_policies_incremental either way.
class ExplorationMemoPool {
 public:
  /// `capacity` = distinct conditions memoized at once.  0 disables
  /// memoing entirely: acquire() then always hands back an invalidated
  /// scratch memo, so every sweep is a full sweep and nothing is ever
  /// retained across epochs (no recycling, no empty-pool edge cases).
  explicit ExplorationMemoPool(std::size_t capacity = 4);

  /// The memo for `condition` (timeouts ignored), or the LRU slot reset to
  /// invalid when no slot matches.  The reference stays valid until the
  /// next acquire().
  [[nodiscard]] ExplorationMemo& acquire(
      const profiler::RuntimeCondition& condition);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    ExplorationMemo memo;
    std::uint64_t last_used = 0;
  };
  std::size_t capacity_;
  /// One scratch slot survives even at capacity 0 so acquire() can always
  /// return a (cold) memo by reference.
  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
};

/// Contract check shared by both entry points, applied to `config.grid`
/// before any simulation: non-empty, all-finite, strictly ascending.
/// Throws stac::ContractViolation naming the offense.
void validate_explorer_config(const ExplorerConfig& config);

/// Steps 1–2 of §5.2 over already-filled prediction matrices: fills
/// out.selection and out.slack_used from out.predicted_* and the config's
/// slack ladder.  Exposed so the relaxation ladder is testable on
/// hand-built matrices (tests/core/policy_explorer_test.cpp).
void select_policy(const ExplorerConfig& config, PolicyExploration& out);

/// Explore the grid with the predictor and match per §5.2.  `condition`
/// supplies the pairing and utilizations; its timeouts are ignored.
[[nodiscard]] PolicyExploration explore_policies(
    const RtPredictor& predictor, const profiler::RuntimeCondition& condition,
    const ExplorerConfig& config = {});

/// Same result as explore_policies (bit-identical matrices and selection),
/// but cells the memo already holds for this (generation, condition,
/// timeout pair) are reused instead of re-simulated.  On return the memo
/// holds this call's full matrices.  `generation` is typically the serving
/// model's version counter.
[[nodiscard]] PolicyExploration explore_policies_incremental(
    const RtPredictor& predictor, const profiler::RuntimeCondition& condition,
    const ExplorerConfig& config, ExplorationMemo& memo,
    std::uint64_t generation = 0);

}  // namespace stac::core
