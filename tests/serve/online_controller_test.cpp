// The closed loop end to end: on stationary traffic the online controller
// must re-derive exactly the offline recommendation (the online == offline
// identity), hold last-known-good timeouts when the model degrades past
// the planning rung, mirror grants into the CAT lease/watchdog path, and
// survive model hot-swaps under load without losing a single event.
#include "serve/online_controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "serve/checkpoint.hpp"
#include "serve/traffic_replay.hpp"
#include "test_dir.hpp"

namespace stac::serve {
namespace {

using core::StacManager;
using core::StacOptions;
using profiler::RuntimeCondition;

StacOptions tiny_options() {
  StacOptions opts;
  opts.profile_budget = 6;
  opts.profiler.target_completions = 250;
  opts.profiler.warmup_completions = 30;
  opts.profiler.max_windows = 1;
  opts.profiler.accesses_per_sample = 600;
  opts.model.deep_forest.mgs.window_sizes = {5};
  opts.model.deep_forest.mgs.estimators = 6;
  opts.model.deep_forest.cascade.levels = 1;
  opts.model.deep_forest.cascade.estimators = 10;
  opts.predictor.sim_queries = 1500;
  opts.explorer.grid = {0.0, 2.0, 6.0};
  return opts;
}

RuntimeCondition base_condition() {
  RuntimeCondition c;
  c.primary = wl::Benchmark::kKnn;
  c.collocated = wl::Benchmark::kBfs;
  c.util_primary = 0.8;
  c.util_collocated = 0.8;
  c.timeout_primary = 1.0;
  c.timeout_collocated = 1.0;
  c.seed = 12;
  return c;
}

ControllerConfig controller_config() {
  ControllerConfig cfg;
  cfg.base_condition = base_condition();
  cfg.explorer = tiny_options().explorer;
  cfg.servers = 2;
  return cfg;
}

cachesim::HierarchyConfig hw_cfg() {
  cachesim::HierarchyConfig c;
  c.l1d = {8 * 1024, 8, 64, 4};
  c.l1i = {8 * 1024, 8, 64, 4};
  c.l2 = {64 * 1024, 16, 64, 12};
  c.llc = {512 * 1024, 8, 64, 40};
  return c;
}

QueryEvent make_event(EventKind kind, std::uint16_t w, double t,
                      double service = 1.0, bool boosted = false) {
  QueryEvent e;
  e.kind = kind;
  e.workload = w;
  e.time = t;
  e.service = service;
  e.queue_delay = kind == EventKind::kCompletion ? 0.1 : 0.0;
  e.boosted = boosted;
  return e;
}

/// Deterministic stationary traffic at utilization 0.8 for both workloads:
/// arrival rate 1.6/s against 2 servers of unit mean service.
void feed_stationary(ArrivalIngest& ring, double t0, double t1) {
  constexpr double kGap = 0.625;  // 1.6 arrivals/s
  for (std::uint16_t w = 0; w < 2; ++w) {
    for (double t = t0; t < t1; t += kGap) {
      ASSERT_TRUE(ring.try_push(make_event(EventKind::kArrival, w, t)));
      ASSERT_TRUE(ring.try_push(make_event(EventKind::kCompletion, w, t)));
    }
  }
}

// Calibration is the expensive part; share one manager across the suite.
class OnlineControllerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mgr_ = new StacManager(tiny_options());
    mgr_->calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  }
  static void TearDownTestSuite() {
    delete mgr_;
    mgr_ = nullptr;
  }

  static StacManager* mgr_;
};

StacManager* OnlineControllerTest::mgr_ = nullptr;

TEST_F(OnlineControllerTest, ColdEpochHoldsInitialTimeouts) {
  ArrivalIngest ring(1024);
  ModelSnapshot<ServingModel> snap;  // nothing published: must not be touched
  OnlineController ctrl(ring, snap, controller_config());
  const EpochReport r = ctrl.run_epoch(1.0);
  EXPECT_FALSE(r.warm);
  EXPECT_FALSE(r.replanned);
  EXPECT_FALSE(r.stale_hold);
  EXPECT_EQ(r.events_drained, 0u);
  EXPECT_DOUBLE_EQ(r.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(r.timeout_collocated, 1.0);
  EXPECT_DOUBLE_EQ(ctrl.timeout(0), 1.0);
  EXPECT_DOUBLE_EQ(ctrl.timeout(1), 1.0);
}

TEST_F(OnlineControllerTest, StationaryTrafficMatchesOfflineRecommend) {
  ArrivalIngest ring(1 << 12);
  ModelSnapshot<ServingModel> snap(
      build_serving_model(*mgr_, tiny_options(), 1));
  OnlineController ctrl(ring, snap, controller_config());

  feed_stationary(ring, 0.0, 60.0);
  const EpochReport r = ctrl.run_epoch(60.0);
  ASSERT_TRUE(r.warm);
  ASSERT_TRUE(r.replanned);
  EXPECT_FALSE(r.stale_hold);
  EXPECT_EQ(r.probe_rung, core::DegradationRung::kPrimaryModel);
  EXPECT_NEAR(r.planned_condition.util_primary, 0.8, 0.051);
  EXPECT_NEAR(r.planned_condition.util_collocated, 0.8, 0.051);

  // The identity: offline recommend() on the very condition the controller
  // planned for selects the very same timeout vector (deterministic
  // training makes the serving bundle predict identically to the manager).
  const core::PolicyExploration offline =
      mgr_->recommend(r.planned_condition);
  EXPECT_EQ(r.timeout_primary, offline.selection.timeout_primary);
  EXPECT_EQ(r.timeout_collocated, offline.selection.timeout_collocated);
  EXPECT_EQ(ctrl.timeout(0), offline.selection.timeout_primary);
  EXPECT_EQ(ctrl.timeout(1), offline.selection.timeout_collocated);

  // Still stationary an epoch later: same condition, same selection.
  feed_stationary(ring, 60.0, 120.0);
  const EpochReport r2 = ctrl.run_epoch(120.0);
  ASSERT_TRUE(r2.replanned);
  EXPECT_EQ(r2.planned_condition.util_primary,
            r.planned_condition.util_primary);
  EXPECT_EQ(r2.timeout_primary, r.timeout_primary);
  EXPECT_EQ(r2.timeout_collocated, r.timeout_collocated);
  EXPECT_EQ(ctrl.totals().replans, 2u);
}

TEST_F(OnlineControllerTest, IncrementalPlanningReusesStationaryEpochs) {
  ArrivalIngest ring(1 << 12);
  ModelSnapshot<ServingModel> snap(
      build_serving_model(*mgr_, tiny_options(), 1));
  ControllerConfig cfg = controller_config();  // incremental = true default
  const std::size_t cells = cfg.explorer.grid.size() * cfg.explorer.grid.size();
  OnlineController ctrl(ring, snap, cfg);

  // Epoch 1: cold memo, full sweep.
  feed_stationary(ring, 0.0, 60.0);
  const EpochReport first = ctrl.run_epoch(60.0);
  ASSERT_TRUE(first.replanned);
  EXPECT_EQ(first.cells_simulated, cells);
  EXPECT_EQ(first.cells_reused, 0u);

  // Epoch 2: same quantized condition, same model version — the memo
  // answers the whole grid and the selection is unchanged.
  feed_stationary(ring, 60.0, 120.0);
  const EpochReport second = ctrl.run_epoch(120.0);
  ASSERT_TRUE(second.replanned);
  EXPECT_EQ(second.cells_simulated, 0u);
  EXPECT_EQ(second.cells_reused, cells);
  EXPECT_EQ(second.timeout_primary, first.timeout_primary);
  EXPECT_EQ(second.timeout_collocated, first.timeout_collocated);

  // Model hot-swap: the version is the memo's generation stamp, so the
  // next epoch re-simulates everything rather than planning on stale
  // predictions.
  snap.publish(build_serving_model(*mgr_, tiny_options(), 2));
  feed_stationary(ring, 120.0, 180.0);
  const EpochReport swapped = ctrl.run_epoch(180.0);
  ASSERT_TRUE(swapped.replanned);
  EXPECT_EQ(swapped.model_version, 2u);
  EXPECT_EQ(swapped.cells_simulated, cells);
  EXPECT_EQ(swapped.cells_reused, 0u);
  // Identical training data: the refit model selects the same vector.
  EXPECT_EQ(swapped.timeout_primary, first.timeout_primary);
}

TEST_F(OnlineControllerTest, ProbeTtlBoundsChaosDetectionLatency) {
  ArrivalIngest ring(1 << 12);
  ModelSnapshot<ServingModel> snap(
      build_serving_model(*mgr_, tiny_options(), 1));
  ControllerConfig cfg = controller_config();
  cfg.max_planning_rung = core::DegradationRung::kLinearFallback;
  cfg.probe_ttl_epochs = 3;  // one probe answers at most 3 epochs
  OnlineController ctrl(ring, snap, cfg);

  feed_stationary(ring, 0.0, 60.0);
  ASSERT_TRUE(ctrl.run_epoch(60.0).replanned);

  // EA predictions now fault.  Epochs 2-3 ride the memoed healthy rung
  // (stationary condition, same bundle, TTL not yet expired); epoch 4's
  // fresh probe sees the failure and holds.
  FaultPlan plan;
  plan.add({.point = "model.predict",
            .action = FaultAction::kThrow,
            .probability = 1.0});
  FaultScope scope(plan);
  for (const double t1 : {120.0, 180.0}) {
    feed_stationary(ring, t1 - 60.0, t1);
    const EpochReport r = ctrl.run_epoch(t1);
    EXPECT_TRUE(r.replanned);
    EXPECT_FALSE(r.stale_hold);
  }
  feed_stationary(ring, 180.0, 240.0);
  const EpochReport detected = ctrl.run_epoch(240.0);
  EXPECT_TRUE(detected.stale_hold);
  EXPECT_FALSE(detected.replanned);
  EXPECT_GT(detected.probe_rung, cfg.max_planning_rung);
}

TEST_F(OnlineControllerTest, DegradedModelHoldsLastKnownGoodVector) {
  ArrivalIngest ring(1 << 12);
  ModelSnapshot<ServingModel> snap(
      build_serving_model(*mgr_, tiny_options(), 1));
  ControllerConfig cfg = controller_config();
  // Only model rungs are acceptable for planning in this test.
  cfg.max_planning_rung = core::DegradationRung::kLinearFallback;
  OnlineController ctrl(ring, snap, cfg);

  // Epoch 1: healthy, replanned — this is the last-known-good vector.
  feed_stationary(ring, 0.0, 60.0);
  const EpochReport healthy = ctrl.run_epoch(60.0);
  ASSERT_TRUE(healthy.replanned);

  // Epoch 2: every EA-model prediction faults, so the ladder answers from
  // the library-neighbour rung — too deep to plan on.  Hold.
  {
    FaultPlan plan;
    plan.add({.point = "model.predict",
              .action = FaultAction::kThrow,
              .probability = 1.0});
    FaultScope scope(plan);
    feed_stationary(ring, 60.0, 120.0);
    const EpochReport degraded = ctrl.run_epoch(120.0);
    ASSERT_TRUE(degraded.warm);
    EXPECT_TRUE(degraded.stale_hold);
    EXPECT_FALSE(degraded.replanned);
    EXPECT_GT(degraded.probe_rung, cfg.max_planning_rung);
    EXPECT_EQ(degraded.timeout_primary, healthy.timeout_primary);
    EXPECT_EQ(degraded.timeout_collocated, healthy.timeout_collocated);
  }

  // Epoch 3: chaos gone, planning resumes.
  feed_stationary(ring, 120.0, 180.0);
  const EpochReport recovered = ctrl.run_epoch(180.0);
  EXPECT_TRUE(recovered.replanned);
  EXPECT_EQ(ctrl.totals().stale_holds, 1u);
}

TEST_F(OnlineControllerTest, MirrorsGrantsIntoCatController) {
  cachesim::CacheHierarchy hw(hw_cfg(), 2);
  cat::AllocationPlan plan = cat::make_pair_plan(8, 1, 2);
  cat::CatController cat(hw, plan);

  ArrivalIngest ring(1024);
  ModelSnapshot<ServingModel> snap;
  OnlineController ctrl(ring, snap, controller_config(), &cat);

  // A fired STAP timeout boosts the class...
  ASSERT_TRUE(ring.try_push(make_event(EventKind::kTimeout, 0, 1.0)));
  (void)ctrl.run_epoch(2.0);
  EXPECT_TRUE(cat.is_boosted(0));
  EXPECT_FALSE(cat.is_boosted(1));

  // ...and the boosted completion releases the grant.
  ASSERT_TRUE(
      ring.try_push(make_event(EventKind::kCompletion, 0, 3.0, 1.0, true)));
  (void)ctrl.run_epoch(4.0);
  EXPECT_FALSE(cat.is_boosted(0));
  EXPECT_EQ(cat.switch_count(), 2u);

  // Unboosted completions never touch the refcount.
  ASSERT_TRUE(
      ring.try_push(make_event(EventKind::kCompletion, 1, 5.0, 1.0, false)));
  (void)ctrl.run_epoch(6.0);
  EXPECT_EQ(cat.fault_stats().spurious_unboosts, 0u);
  EXPECT_EQ(ctrl.totals().events_drained, 3u);
}

TEST_F(OnlineControllerTest, WatchdogRevokesLeakedLease) {
  cachesim::CacheHierarchy hw(hw_cfg(), 2);
  cat::AllocationPlan plan = cat::make_pair_plan(8, 1, 2);
  cat::CatResilienceConfig resilience;
  resilience.max_boost_lease = 5.0;
  cat::CatController cat(hw, plan, resilience);

  ArrivalIngest ring(1024);
  ModelSnapshot<ServingModel> snap;
  OnlineController ctrl(ring, snap, controller_config(), &cat);

  // The boost's completion never arrives (leaked grant).
  ASSERT_TRUE(ring.try_push(make_event(EventKind::kTimeout, 1, 1.0)));
  const EpochReport early = ctrl.run_epoch(2.0);
  EXPECT_EQ(early.watchdog_revocations, 0u);
  EXPECT_TRUE(cat.is_boosted(1));

  const EpochReport late = ctrl.run_epoch(20.0);
  EXPECT_EQ(late.watchdog_revocations, 1u);
  EXPECT_FALSE(cat.is_boosted(1));
  EXPECT_EQ(ctrl.totals().watchdog_revocations, 1u);
}

TEST_F(OnlineControllerTest, WarmEpochWithNoModelIsAHoldNotAnError) {
  ArrivalIngest ring(1 << 12);
  ModelSnapshot<ServingModel> snap;  // recovery window: no bundle yet
  OnlineController ctrl(ring, snap, controller_config());
  feed_stationary(ring, 0.0, 60.0);
  const EpochReport r = ctrl.run_epoch(60.0);
  EXPECT_TRUE(r.warm);
  EXPECT_TRUE(r.model_unavailable_hold);
  EXPECT_FALSE(r.replanned);
  EXPECT_DOUBLE_EQ(r.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(r.timeout_collocated, 1.0);
  EXPECT_EQ(ctrl.totals().model_unavailable_holds, 1u);
}

TEST_F(OnlineControllerTest, PlanDeadlineMissHoldsLastKnownGoodVector) {
  ArrivalIngest ring(1 << 12);
  ModelSnapshot<ServingModel> snap(
      build_serving_model(*mgr_, tiny_options(), 1));
  ControllerConfig cfg = controller_config();
  cfg.plan_deadline_seconds = 1e-12;  // every sweep overruns this
  OnlineController ctrl(ring, snap, cfg);

  feed_stationary(ring, 0.0, 60.0);
  const EpochReport r = ctrl.run_epoch(60.0);
  ASSERT_TRUE(r.warm);
  // The sweep ran and overran: its selection is discarded, the epoch is
  // counted as a miss, and the pre-epoch vector keeps serving.
  EXPECT_TRUE(r.deadline_miss);
  EXPECT_FALSE(r.replanned);
  EXPECT_DOUBLE_EQ(r.timeout_primary, 1.0);
  EXPECT_DOUBLE_EQ(r.timeout_collocated, 1.0);
  EXPECT_EQ(ctrl.totals().deadline_misses, 1u);
  EXPECT_EQ(ctrl.totals().replans, 0u);
}

TEST_F(OnlineControllerTest, EpochFaultPointCrashesBeforeStateMoves) {
  ArrivalIngest ring(1024);
  ModelSnapshot<ServingModel> snap;
  OnlineController ctrl(ring, snap, controller_config());
  {
    FaultPlan plan;
    plan.add({.point = "serve.controller.epoch",
              .action = FaultAction::kThrow,
              .every_nth = 1,
              .message = "injected controller crash"});
    FaultScope scope(plan);
    EXPECT_THROW((void)ctrl.run_epoch(1.0), InjectedFault);
  }
  // The crash hit before the epoch counter moved: re-run, don't skip.
  EXPECT_EQ(ctrl.totals().epochs, 0u);
  const EpochReport r = ctrl.run_epoch(1.0);
  EXPECT_EQ(r.epoch, 1u);
}

TEST_F(OnlineControllerTest, CheckpointCadenceWritesAndSurvivesWriteFaults) {
  const TestDir ckpt_dir;
  const std::string dir = ckpt_dir.path().string();
  ArrivalIngest ring(1024);
  ModelSnapshot<ServingModel> snap;
  ControllerConfig cfg = controller_config();
  cfg.checkpoint.directory = dir;
  cfg.checkpoint.every_n_epochs = 1;
  OnlineController ctrl(ring, snap, cfg);

  const EpochReport first = ctrl.run_epoch(1.0);
  EXPECT_TRUE(first.checkpoint_written);
  const CheckpointLoadReport loaded = load_checkpoint(checkpoint_path(dir));
  ASSERT_TRUE(loaded.clean()) << loaded.reason;
  EXPECT_EQ(loaded.checkpoint->epoch, 1u);

  // Storage trouble mid-epoch: the tick completes, the failure is counted,
  // and the epoch-1 checkpoint on disk stays valid.
  {
    FaultPlan plan;
    plan.add({.point = "serve.checkpoint.write",
              .action = FaultAction::kThrow,
              .every_nth = 1});
    FaultScope scope(plan);
    const EpochReport second = ctrl.run_epoch(2.0);
    EXPECT_EQ(second.epoch, 2u);
    EXPECT_FALSE(second.checkpoint_written);
  }
  EXPECT_EQ(ctrl.totals().checkpoint_failures, 1u);
  const CheckpointLoadReport after = load_checkpoint(checkpoint_path(dir));
  ASSERT_TRUE(after.clean()) << after.reason;
  EXPECT_EQ(after.checkpoint->epoch, 1u);
}

TEST_F(OnlineControllerTest, RecoveryMatchesUninterruptedRunBitExactly) {
  const TestDir ckpt_dir;
  const std::string dir = ckpt_dir.path().string();
  auto bundle_for = [&] { return build_serving_model(*mgr_, tiny_options(), 1); };

  // Uninterrupted baseline: two epochs of stationary CRN traffic, with a
  // checkpoint written after epoch 1.
  ArrivalIngest ring_a(1 << 12);
  ModelSnapshot<ServingModel> snap_a(bundle_for());
  ControllerConfig cfg = controller_config();
  cfg.checkpoint.directory = dir;
  cfg.checkpoint.every_n_epochs = 1;
  cfg.checkpoint.library_ref = "stac_manager:test";
  OnlineController a(ring_a, snap_a, cfg);
  feed_stationary(ring_a, 0.0, 60.0);
  const EpochReport a1 = a.run_epoch(60.0);
  ASSERT_TRUE(a1.replanned);
  ASSERT_TRUE(a1.checkpoint_written);
  // Grab the epoch-1 checkpoint before the epoch-2 cadence overwrites it —
  // this is the file a crash between the two ticks would recover from.
  const CheckpointLoadReport loaded = load_checkpoint(checkpoint_path(dir));
  ASSERT_TRUE(loaded.clean()) << loaded.reason;
  feed_stationary(ring_a, 60.0, 120.0);
  const EpochReport a2 = a.run_epoch(120.0);
  ASSERT_TRUE(a2.replanned);

  // "Crash" after epoch 1: a fresh controller process recovers from the
  // epoch-1 checkpoint and replays the same epoch-2 traffic.
  EXPECT_EQ(loaded.checkpoint->epoch, 1u);
  EXPECT_EQ(loaded.checkpoint->library_ref, "stac_manager:test");

  ArrivalIngest ring_b(1 << 12);
  ModelSnapshot<ServingModel> snap_b(bundle_for());
  ControllerConfig cfg_b = controller_config();  // no checkpoint dir: read-only
  OnlineController b(ring_b, snap_b, cfg_b);
  const RecoveryReport rec = b.recover(*loaded.checkpoint, 60.0);
  EXPECT_TRUE(rec.restored);
  EXPECT_FALSE(rec.quarantined);
  EXPECT_EQ(b.totals().recoveries, 1u);
  EXPECT_EQ(b.totals().epochs, 1u);  // epoch counter continues, not restarts

  // The last-known-good vector is live immediately, before any replan.
  const double recovered_primary = b.timeout(0);
  EXPECT_EQ(std::memcmp(&a1.timeout_primary, &recovered_primary,
                        sizeof(double)),
            0);
  EXPECT_DOUBLE_EQ(b.timeout(1), a1.timeout_collocated);

  feed_stationary(ring_b, 60.0, 120.0);
  const EpochReport b2 = b.run_epoch(120.0);
  ASSERT_TRUE(b2.replanned);
  EXPECT_EQ(b2.epoch, 2u);

  // Bit-identical recommended vectors vs the uninterrupted run.
  const double a2p = a2.timeout_primary, b2p = b2.timeout_primary;
  const double a2c = a2.timeout_collocated, b2c = b2.timeout_collocated;
  EXPECT_EQ(std::memcmp(&a2p, &b2p, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a2c, &b2c, sizeof(double)), 0);
  EXPECT_EQ(b2.planned_condition.util_primary,
            a2.planned_condition.util_primary);
  EXPECT_EQ(b2.planned_condition.util_collocated,
            a2.planned_condition.util_collocated);
}

TEST_F(OnlineControllerTest, RecoverQuarantinesMalformedCheckpoints) {
  ArrivalIngest ring(1024);
  ModelSnapshot<ServingModel> snap;
  OnlineController ctrl(ring, snap, controller_config());

  // A checkpoint written before a retrain changed the workload set: the
  // shape no longer matches the live pair.  Quarantined — counted, nothing
  // restored, and the controller keeps serving its initial vector rather
  // than crashing on stale durable state.
  ControllerCheckpoint wrong_shape;
  wrong_shape.workloads.resize(1);
  wrong_shape.workloads[0].timeout = 0.25;
  wrong_shape.workloads[0].arrivals = 777;
  const RecoveryReport shape = ctrl.recover(wrong_shape, 1.0);
  EXPECT_FALSE(shape.restored);
  EXPECT_TRUE(shape.quarantined);
  EXPECT_FALSE(shape.reason.empty());
  EXPECT_DOUBLE_EQ(ctrl.timeout(0), 1.0);  // untouched

  ControllerCheckpoint bad_timeout;
  bad_timeout.workloads.resize(2);
  bad_timeout.workloads[0].timeout = -1.0;
  const RecoveryReport bad = ctrl.recover(bad_timeout, 1.0);
  EXPECT_FALSE(bad.restored);
  EXPECT_TRUE(bad.quarantined);
  EXPECT_DOUBLE_EQ(ctrl.timeout(0), 1.0);

  // Validation runs before mutation: the oversize checkpoint's extra slots
  // never walked off the estimator's end, and nothing was half-applied.
  ControllerCheckpoint oversize;
  oversize.workloads.resize(5);
  for (auto& w : oversize.workloads) w.timeout = 0.5;
  const RecoveryReport over = ctrl.recover(oversize, 1.0);
  EXPECT_TRUE(over.quarantined);
  EXPECT_DOUBLE_EQ(ctrl.timeout(0), 1.0);
  EXPECT_DOUBLE_EQ(ctrl.timeout(1), 1.0);

  EXPECT_EQ(ctrl.totals().recoveries, 0u);
  EXPECT_EQ(ctrl.totals().recovery_quarantines, 3u);
  EXPECT_EQ(ctrl.estimator().restore_quarantined(), 0u);

  // A clean checkpoint still restores after the quarantines.
  ControllerCheckpoint good;
  good.epoch = 7;
  good.workloads.resize(2);
  good.workloads[0].timeout = 2.0;
  good.workloads[1].timeout = 6.0;
  const RecoveryReport ok = ctrl.recover(good, 1.0);
  EXPECT_TRUE(ok.restored);
  EXPECT_DOUBLE_EQ(ctrl.timeout(0), 2.0);
  EXPECT_DOUBLE_EQ(ctrl.timeout(1), 6.0);
  EXPECT_EQ(ctrl.totals().recoveries, 1u);
  EXPECT_EQ(ctrl.totals().epochs, 7u);
}

TEST_F(OnlineControllerTest, HotSwapUnderLoadLosesNoEvents) {
  ArrivalIngest ring(1 << 16);
  ModelSnapshot<ServingModel> snap(
      build_serving_model(*mgr_, tiny_options(), 1));
  ControllerConfig cfg = controller_config();
  cfg.estimator.min_completions = 10;
  OnlineController ctrl(ring, snap, cfg);

  ReplayConfig replay_cfg;
  replay_cfg.workloads = {
      {.mean_service = 0.05, .service_cv = 0.7, .servers = 2,
       .base_util = 0.6},
      {.mean_service = 0.05, .service_cv = 0.7, .servers = 2,
       .base_util = 0.6}};
  replay_cfg.shards_per_workload = 2;  // 4 producer threads
  TrafficReplay replay(ring, &ctrl, replay_cfg);

  // Pre-built bundles so the swap thread only publishes (refits would
  // dominate the test under TSan).
  std::vector<std::unique_ptr<const ServingModel>> bundles;
  for (std::uint64_t v = 2; v <= 4; ++v)
    bundles.push_back(build_serving_model(*mgr_, tiny_options(), v));

  std::thread swapper([&] {
    for (auto& b : bundles) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      snap.publish(std::move(b));
    }
  });

  // ~20 wall-paced simulated seconds per wall second: the run overlaps all
  // three publishes.
  const SoakResult result = replay.run_threaded(ctrl, /*sim_seconds=*/40.0,
                                                /*epoch_interval=*/2.0,
                                                /*wall_pace=*/40.0);
  swapper.join();

  // Zero loss through the swap: every published event was drained.
  EXPECT_EQ(result.traffic.push_failures, 0u);
  EXPECT_EQ(result.ingest_dropped, 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.popped(), ring.pushed());
  EXPECT_EQ(result.controller.events_drained, ring.pushed());
  EXPECT_EQ(result.traffic.arrivals, result.traffic.completions);
  EXPECT_GT(result.traffic.arrivals, 100u);
  EXPECT_EQ(result.epochs, 20u);
  EXPECT_EQ(snap.version(), 4u);
  EXPECT_GE(ctrl.totals().model_swaps_observed, 1u);
  EXPECT_GT(ctrl.totals().replans, 0u);
}

// A manager calibrated with modeled-time EA labels must serve exactly like
// a miss-ratio one: bundle builds, controller warms up and replans.
TEST(OnlineControllerEaMode, ServesFromModeledTimeCalibration) {
  StacOptions opts = tiny_options();
  opts.profiler.ea_mode = profiler::EaMode::kModeledTime;
  StacManager mgr(opts);
  mgr.calibrate(wl::Benchmark::kKnn, wl::Benchmark::kBfs);
  ASSERT_TRUE(mgr.calibrated());

  ArrivalIngest ring(1 << 12);
  ModelSnapshot<ServingModel> snap(build_serving_model(mgr, opts, 1));
  OnlineController ctrl(ring, snap, controller_config());
  feed_stationary(ring, 0.0, 60.0);
  const EpochReport r = ctrl.run_epoch(60.0);
  ASSERT_TRUE(r.warm);
  ASSERT_TRUE(r.replanned);
  const auto& grid = opts.explorer.grid;
  EXPECT_NE(std::find(grid.begin(), grid.end(), r.timeout_primary),
            grid.end());
}

}  // namespace
}  // namespace stac::serve
