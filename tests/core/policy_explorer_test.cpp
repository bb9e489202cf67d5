#include "core/policy_explorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace stac::core {
namespace {

using profiler::Profiler;
using profiler::ProfilerConfig;
using profiler::RuntimeCondition;

ProfilerConfig fast_config() {
  ProfilerConfig cfg;
  cfg.target_completions = 300;
  cfg.warmup_completions = 40;
  return cfg;
}

RuntimeCondition pairing() {
  RuntimeCondition c;
  c.primary = wl::Benchmark::kKmeans;
  c.collocated = wl::Benchmark::kRedis;
  c.util_primary = 0.9;
  c.util_collocated = 0.9;
  c.seed = 4;
  return c;
}

class PolicyExplorerTest : public ::testing::Test {
 protected:
  PolicyExplorerTest()
      : profiler_(fast_config()),
        predictor_(profiler_, nullptr, nullptr,
                   [] {
                     RtPredictorConfig cfg;
                     cfg.analytic_ea = true;
                     cfg.sim_queries = 2500;
                     return cfg;
                   }()) {}
  Profiler profiler_;
  RtPredictor predictor_;
};

TEST_F(PolicyExplorerTest, GridFullyExplored) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0, 4.0};
  const PolicyExploration r =
      explore_policies(predictor_, pairing(), cfg);
  EXPECT_EQ(r.predicted_primary.rows(), 3u);
  EXPECT_EQ(r.predicted_primary.cols(), 3u);
  EXPECT_EQ(r.predictions_made, 18u);  // 9 pairs x 2 directions
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_GT(r.predicted_primary(i, j), 0.0);
}

TEST_F(PolicyExplorerTest, SelectionComesFromGrid) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 0.5, 1.0, 2.0, 4.0};  // the paper's 5 settings
  const PolicyExploration r =
      explore_policies(predictor_, pairing(), cfg);
  EXPECT_EQ(r.selection.name, "model-driven");
  EXPECT_NE(std::find(cfg.grid.begin(), cfg.grid.end(),
                      r.selection.timeout_primary),
            cfg.grid.end());
  EXPECT_NE(std::find(cfg.grid.begin(), cfg.grid.end(),
                      r.selection.timeout_collocated),
            cfg.grid.end());
  EXPECT_GT(r.slack_used, 0.0);
}

TEST_F(PolicyExplorerTest, SelectionBeatsNeverBoostInPrediction) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0, 4.0, 6.0};
  const PolicyExploration r =
      explore_policies(predictor_, pairing(), cfg);
  // The selected cell's predicted RT must be at most the never-boost cell.
  const std::size_t never = 3;
  std::size_t si = 0, sj = 0;
  for (std::size_t i = 0; i < cfg.grid.size(); ++i) {
    if (cfg.grid[i] == r.selection.timeout_primary) si = i;
    if (cfg.grid[i] == r.selection.timeout_collocated) sj = i;
  }
  EXPECT_LE(r.predicted_primary(si, sj),
            r.predicted_primary(never, never) * (1.0 + r.slack_used) + 1e-9);
}

TEST_F(PolicyExplorerTest, ParallelSweepBitIdenticalAcrossThreadCounts) {
  // Each grid cell is internally seeded and writes only its own slots, so
  // the sweep must return the same selection and the same predicted
  // matrices bit for bit, whatever the pool size — including serial.
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0, 4.0};
  cfg.parallel = false;
  const PolicyExploration serial =
      explore_policies(predictor_, pairing(), cfg);

  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {&one, &four}) {
    cfg.parallel = true;
    cfg.pool = pool;
    const PolicyExploration r = explore_policies(predictor_, pairing(), cfg);
    EXPECT_EQ(r.selection.timeout_primary, serial.selection.timeout_primary);
    EXPECT_EQ(r.selection.timeout_collocated,
              serial.selection.timeout_collocated);
    EXPECT_EQ(r.slack_used, serial.slack_used);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(r.predicted_primary(i, j), serial.predicted_primary(i, j));
        EXPECT_EQ(r.predicted_collocated(i, j),
                  serial.predicted_collocated(i, j));
      }
    }
  }
}

TEST_F(PolicyExplorerTest, EmptyGridThrows) {
  ExplorerConfig cfg;
  cfg.grid.clear();
  EXPECT_THROW(explore_policies(predictor_, pairing(), cfg),
               ContractViolation);
}

TEST_F(PolicyExplorerTest, GridContractRejectsNonFiniteAndUnsorted) {
  // Satellite contract (validate_explorer_config): the grid must be
  // non-empty, all-finite and strictly ascending — checked at entry,
  // before any simulation money is spent.
  ExplorerConfig cfg;
  cfg.grid = {0.0, std::numeric_limits<double>::quiet_NaN(), 4.0};
  EXPECT_THROW(explore_policies(predictor_, pairing(), cfg),
               ContractViolation);
  cfg.grid = {0.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(explore_policies(predictor_, pairing(), cfg),
               ContractViolation);
  cfg.grid = {1.0, 0.5, 2.0};  // unsorted
  EXPECT_THROW(explore_policies(predictor_, pairing(), cfg),
               ContractViolation);
  cfg.grid = {0.0, 1.0, 1.0};  // duplicate = not strictly ascending
  EXPECT_THROW(explore_policies(predictor_, pairing(), cfg),
               ContractViolation);
  // The incremental entry point shares the same contract.
  ExplorationMemo memo;
  EXPECT_THROW(
      explore_policies_incremental(predictor_, pairing(), cfg, memo, 0),
      ContractViolation);
}

TEST_F(PolicyExplorerTest, IncrementalReusesStationaryEpochsBitIdentically) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0, 4.0};
  const PolicyExploration full = explore_policies(predictor_, pairing(), cfg);
  EXPECT_EQ(full.cells_simulated, 9u);
  EXPECT_EQ(full.cells_reused, 0u);

  // Epoch 1: cold memo — everything simulates, result == full sweep.
  ExplorationMemo memo;
  const PolicyExploration first =
      explore_policies_incremental(predictor_, pairing(), cfg, memo, 7);
  EXPECT_EQ(first.cells_simulated, 9u);
  EXPECT_EQ(first.cells_reused, 0u);

  // Epoch 2: identical condition and generation — zero simulations.
  const PolicyExploration second =
      explore_policies_incremental(predictor_, pairing(), cfg, memo, 7);
  EXPECT_EQ(second.cells_simulated, 0u);
  EXPECT_EQ(second.cells_reused, 9u);
  EXPECT_EQ(second.predictions_made, 0u);

  for (const PolicyExploration* r : {&first, &second}) {
    EXPECT_EQ(r->selection.timeout_primary, full.selection.timeout_primary);
    EXPECT_EQ(r->selection.timeout_collocated,
              full.selection.timeout_collocated);
    EXPECT_EQ(r->slack_used, full.slack_used);
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(r->predicted_primary(i, j), full.predicted_primary(i, j));
        EXPECT_EQ(r->predicted_collocated(i, j),
                  full.predicted_collocated(i, j));
      }
  }
}

TEST_F(PolicyExplorerTest, IncrementalInvalidatesOnDriftRefitAndNewGridPoints) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0, 4.0};
  ExplorationMemo memo;
  (void)explore_policies_incremental(predictor_, pairing(), cfg, memo, 7);

  // Condition drift (utilization moved): every cell re-simulates.
  RuntimeCondition drifted = pairing();
  drifted.util_primary = 0.85;
  const PolicyExploration after_drift =
      explore_policies_incremental(predictor_, drifted, cfg, memo, 7);
  EXPECT_EQ(after_drift.cells_simulated, 9u);
  EXPECT_EQ(after_drift.cells_reused, 0u);

  // Model refit (generation bump): memoed predictions are dead.
  const PolicyExploration after_refit =
      explore_policies_incremental(predictor_, drifted, cfg, memo, 8);
  EXPECT_EQ(after_refit.cells_simulated, 9u);
  EXPECT_EQ(after_refit.cells_reused, 0u);

  // Grid growth: old (i, j) pairs answer from the memo, cells touching the
  // new point simulate.  3x3 kept of 4x4 = 9 reused, 7 simulated.
  ExplorerConfig wider = cfg;
  wider.grid = {0.0, 1.0, 4.0, 6.0};
  const PolicyExploration after_growth =
      explore_policies_incremental(predictor_, drifted, wider, memo, 8);
  EXPECT_EQ(after_growth.cells_simulated, 7u);
  EXPECT_EQ(after_growth.cells_reused, 9u);

  // And the widened sweep still equals its from-scratch counterpart.
  const PolicyExploration full =
      explore_policies(predictor_, drifted, wider);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(after_growth.predicted_primary(i, j),
                full.predicted_primary(i, j));
      EXPECT_EQ(after_growth.predicted_collocated(i, j),
                full.predicted_collocated(i, j));
    }
}

TEST_F(PolicyExplorerTest, MemoPoolAnswersOscillatingConditionsWarm) {
  // The quantization-boundary scenario: the planned condition flips between
  // two cells forever.  A single memo would full-sweep on every flip; a
  // pool holds one memo per condition, so after one cold sweep each, every
  // revisit reuses all cells.
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0, 4.0};
  RuntimeCondition lo = pairing();
  lo.util_primary = 0.85;
  const RuntimeCondition hi = pairing();  // util 0.9

  ExplorationMemoPool pool(2);
  std::size_t cold = 0;
  std::size_t warm = 0;
  for (std::size_t epoch = 0; epoch < 8; ++epoch) {
    const RuntimeCondition& cond = (epoch % 2 == 0) ? lo : hi;
    const PolicyExploration r = explore_policies_incremental(
        predictor_, cond, cfg, pool.acquire(cond), 7);
    if (epoch < 2) {
      EXPECT_EQ(r.cells_simulated, 9u) << "epoch " << epoch;
      ++cold;
    } else {
      EXPECT_EQ(r.cells_simulated, 0u) << "epoch " << epoch;
      EXPECT_EQ(r.cells_reused, 9u) << "epoch " << epoch;
      ++warm;
    }
  }
  EXPECT_EQ(cold, 2u);
  EXPECT_EQ(warm, 6u);
}

TEST_F(PolicyExplorerTest, MemoPoolEvictsLeastRecentlyUsed) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0};
  RuntimeCondition a = pairing();
  a.util_primary = 0.80;
  RuntimeCondition b = pairing();
  b.util_primary = 0.85;
  RuntimeCondition c = pairing();
  c.util_primary = 0.90;

  ExplorationMemoPool pool(2);
  auto sweep = [&](const RuntimeCondition& cond) {
    return explore_policies_incremental(predictor_, cond, cfg,
                                        pool.acquire(cond), 7)
        .cells_simulated;
  };
  EXPECT_EQ(sweep(a), 4u);  // cold
  EXPECT_EQ(sweep(b), 4u);  // cold
  EXPECT_EQ(sweep(a), 0u);  // warm — refreshes a's recency
  EXPECT_EQ(sweep(c), 4u);  // cold, evicts b (LRU)
  EXPECT_EQ(sweep(a), 0u);  // a survived
  EXPECT_EQ(sweep(b), 4u);  // b was evicted: cold again
}

TEST(ExplorationMemoPool, ZeroCapacityDisablesMemoingEntirely) {
  // capacity 0 = memoing off: every acquire() hands back a cold scratch
  // memo, even for a condition the previous sweep just wrote into it.
  ExplorationMemoPool pool(0);
  EXPECT_EQ(pool.capacity(), 0u);
  profiler::RuntimeCondition c;
  c.primary = wl::Benchmark::kKmeans;
  c.collocated = wl::Benchmark::kRedis;
  ExplorationMemo& memo = pool.acquire(c);
  EXPECT_FALSE(memo.valid);
  memo.valid = true;  // simulate a sweep populating the memo
  memo.condition = c;
  ExplorationMemo& again = pool.acquire(c);
  EXPECT_FALSE(again.valid);  // discarded, not recycled
}

TEST_F(PolicyExplorerTest, ZeroCapacityPoolFullSweepsEveryEpoch) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0, 4.0};
  ExplorationMemoPool pool(0);
  const RuntimeCondition cond = pairing();
  for (int epoch = 0; epoch < 3; ++epoch) {
    const PolicyExploration r = explore_policies_incremental(
        predictor_, cond, cfg, pool.acquire(cond), 7);
    EXPECT_EQ(r.cells_simulated, 9u) << "epoch " << epoch;
    EXPECT_EQ(r.cells_reused, 0u) << "epoch " << epoch;
  }
}

TEST_F(PolicyExplorerTest, MemoWithStaleGeometryIsNotServedAfterGridShrink) {
  // A memo populated under one grid must never satisfy a sweep whose grid
  // no longer matches the memoized matrices' geometry — even when valid,
  // same-generation, and same-condition.  The shrunken sweep's matrices
  // must be rebuilt at the new size, not sliced out of the stale ones.
  ExplorerConfig wide;
  wide.grid = {0.0, 1.0, 4.0};
  const RuntimeCondition cond = pairing();
  ExplorationMemo memo;
  (void)explore_policies_incremental(predictor_, cond, wide, memo, 7);
  ASSERT_TRUE(memo.valid);
  ASSERT_EQ(memo.grid.size(), 3u);

  // Corrupt the memo the way a config hot-swap bug would: the grid list
  // shrinks but the matrices keep their old 3x3 geometry.
  memo.grid = {0.0, 1.0};

  ExplorerConfig narrow;
  narrow.grid = {0.0, 1.0};
  const PolicyExploration r =
      explore_policies_incremental(predictor_, cond, narrow, memo, 7);
  EXPECT_EQ(r.cells_simulated, 4u);  // full re-sweep, no stale reuse
  EXPECT_EQ(r.cells_reused, 0u);
  EXPECT_EQ(r.predicted_primary.rows(), 2u);
  EXPECT_EQ(r.predicted_primary.cols(), 2u);
  const PolicyExploration fresh = explore_policies(predictor_, cond, narrow);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_EQ(r.predicted_primary(i, j), fresh.predicted_primary(i, j));
}

// --- slack-relaxation ladder on hand-built matrices (select_policy) ---

PolicyExploration hand_built(const std::vector<std::vector<double>>& p,
                             const std::vector<std::vector<double>>& c) {
  PolicyExploration out;
  const std::size_t g = p.size();
  out.predicted_primary = Matrix(g, g);
  out.predicted_collocated = Matrix(g, g);
  for (std::size_t i = 0; i < g; ++i)
    for (std::size_t j = 0; j < g; ++j) {
      out.predicted_primary(i, j) = p[i][j];
      out.predicted_collocated(i, j) = c[i][j];
    }
  return out;
}

TEST(SelectPolicy, NoRelaxationWhenIntersectionExistsAtBaseSlack) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0};
  cfg.slack = 0.05;
  // Cell (1, 1) is within 5% of both per-side bests.
  PolicyExploration out = hand_built({{1.0, 3.0}, {1.02, 3.0}},
                                     {{3.0, 3.0}, {1.0, 3.0}});
  select_policy(cfg, out);
  EXPECT_EQ(out.selection.timeout_primary, 1.0);
  EXPECT_EQ(out.selection.timeout_collocated, 0.0);
  EXPECT_EQ(out.slack_used, cfg.slack);
}

TEST(SelectPolicy, SlackGrowthNeededExactlyOnce) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0};
  cfg.slack = 0.05;
  cfg.slack_growth = 4.0;
  cfg.max_relaxations = 6;
  // Per-side bests are 1.0 in different cells; at 5% slack neither kept
  // set intersects (the cross predictions are 15–20% off the best), but
  // one relaxation to 20% admits both (0, 0) and (0, 1).  Asymmetric
  // values so min-sum picks (0, 1) without a tie.
  PolicyExploration out = hand_built({{1.0, 1.15}, {5.0, 5.0}},
                                     {{1.2, 1.0}, {5.0, 5.0}});
  select_policy(cfg, out);
  EXPECT_EQ(out.selection.timeout_primary, 0.0);
  EXPECT_EQ(out.selection.timeout_collocated, 1.0);
  EXPECT_DOUBLE_EQ(out.slack_used, 0.05 * 4.0);  // grown exactly once
}

TEST(SelectPolicy, PermanentlyEmptyIntersectionExhaustsLadderThenMinSum) {
  ExplorerConfig cfg;
  cfg.grid = {0.0, 1.0};
  cfg.slack = 0.05;
  cfg.slack_growth = 2.0;
  cfg.max_relaxations = 3;
  // The two sides' bests live in opposite cells and every cross prediction
  // is ~10x the best: slacks 0.05, 0.1, 0.2, 0.4 all leave the
  // intersection empty, so the ladder exhausts and the fallback minimizes
  // the combined sum outright — (0, 0) with 1 + 9 = 10.
  PolicyExploration out = hand_built({{1.0, 10.0}, {10.0, 10.0}},
                                     {{9.0, 10.0}, {10.0, 1.0}});
  select_policy(cfg, out);
  EXPECT_EQ(out.selection.timeout_primary, 0.0);
  EXPECT_EQ(out.selection.timeout_collocated, 0.0);
  // slack grew through every attempt: 0.05 * 2^(max_relaxations + 1).
  EXPECT_DOUBLE_EQ(out.slack_used, 0.05 * 16.0);
}

}  // namespace
}  // namespace stac::core
