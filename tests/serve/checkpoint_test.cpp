// Checkpoint durability contract: doubles round-trip bit-exactly, any
// damage (flipped byte, truncation, missing trailer) quarantines instead
// of serving garbage, and a failed write never disturbs the previous
// checkpoint on disk (atomic replacement + write fault point).
#include "serve/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "test_dir.hpp"

namespace stac::serve {
namespace {

namespace fs = std::filesystem;

/// Each test writes into its own directory, removed at teardown.
class FileTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::string test_dir() const { return dir_.path().string(); }

 private:
  TestDir dir_;
};
using Checkpoint = FileTest;
using AtomicFile = FileTest;

ControllerCheckpoint sample_checkpoint() {
  ControllerCheckpoint c;
  c.epoch = 42;
  c.time = 84.0;
  c.condition_seed = 99;
  c.predictor_seed = 2024;
  c.model_version = 7;
  c.library_ref = "profiles/run_0012.stacprof";
  c.library_size = 36;
  c.replans = 17;
  c.stale_holds = 3;
  c.deadline_misses = 1;
  c.workloads.resize(2);
  // Deliberately awkward doubles: round-trip must be exact, not close.
  c.workloads[0] = {.timeout = 0.1 + 0.2,
                    .ewma_queue_delay = 1.0 / 3.0,
                    .ewma_queue_time = 83.99999999999999,
                    .ewma_queue_seeded = true,
                    .ewma_service = 5e-324,  // denormal min
                    .ewma_service_time = 84.0,
                    .ewma_service_seeded = true,
                    .arrivals = 100000,
                    .completions = 99998,
                    .timeouts = 250};
  c.workloads[1] = {.timeout = 6.0,
                    .ewma_queue_delay = 0.0,
                    .ewma_queue_time = 0.0,
                    .ewma_queue_seeded = false,
                    .ewma_service = 0.048999999999999995,
                    .ewma_service_time = 83.5,
                    .ewma_service_seeded = true,
                    .arrivals = 12,
                    .completions = 10,
                    .timeouts = 0};
  return c;
}

std::string read_all(const std::string& path) {
  std::string text;
  EXPECT_TRUE(read_file(path, text));
  return text;
}

TEST_F(Checkpoint, RoundTripIsBitExact) {
  const std::string path = checkpoint_path(test_dir());
  const ControllerCheckpoint in = sample_checkpoint();
  save_checkpoint(path, in);

  const CheckpointLoadReport report = load_checkpoint(path);
  ASSERT_TRUE(report.clean()) << report.reason;
  EXPECT_FALSE(report.quarantined);
  const ControllerCheckpoint& out = *report.checkpoint;
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.time, in.time);
  EXPECT_EQ(out.condition_seed, in.condition_seed);
  EXPECT_EQ(out.predictor_seed, in.predictor_seed);
  EXPECT_EQ(out.model_version, in.model_version);
  EXPECT_EQ(out.library_ref, in.library_ref);
  EXPECT_EQ(out.library_size, in.library_size);
  EXPECT_EQ(out.replans, in.replans);
  EXPECT_EQ(out.stale_holds, in.stale_holds);
  EXPECT_EQ(out.deadline_misses, in.deadline_misses);
  ASSERT_EQ(out.workloads.size(), in.workloads.size());
  for (std::size_t w = 0; w < in.workloads.size(); ++w) {
    const WorkloadCheckpoint& a = in.workloads[w];
    const WorkloadCheckpoint& b = out.workloads[w];
    // Exact bit equality, including the denormal.
    EXPECT_EQ(std::memcmp(&a.timeout, &b.timeout, sizeof(double)), 0);
    EXPECT_EQ(a.ewma_queue_delay, b.ewma_queue_delay);
    EXPECT_EQ(a.ewma_queue_time, b.ewma_queue_time);
    EXPECT_EQ(a.ewma_queue_seeded, b.ewma_queue_seeded);
    EXPECT_EQ(a.ewma_service, b.ewma_service);
    EXPECT_EQ(a.ewma_service_time, b.ewma_service_time);
    EXPECT_EQ(a.ewma_service_seeded, b.ewma_service_seeded);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.timeouts, b.timeouts);
  }
}

TEST_F(Checkpoint, MissingFileQuarantinesWithoutThrowing) {
  const CheckpointLoadReport report =
      load_checkpoint(test_dir() + "/does_not_exist.ckpt");
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.quarantined);
  EXPECT_NE(report.reason.find("cannot open"), std::string::npos);
}

TEST_F(Checkpoint, FlippedByteFailsTheChecksum) {
  const std::string path = checkpoint_path(test_dir());
  save_checkpoint(path, sample_checkpoint());
  std::string text = read_all(path);
  // Corrupt one digit somewhere inside the body (not the trailer).
  const std::size_t pos = text.find("42");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '9';
  write_file_atomic(path, text);

  const CheckpointLoadReport report = load_checkpoint(path);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.quarantined);
  EXPECT_NE(report.reason.find("checksum"), std::string::npos);
}

TEST_F(Checkpoint, TruncationQuarantines) {
  const std::string path = checkpoint_path(test_dir());
  save_checkpoint(path, sample_checkpoint());
  const std::string text = read_all(path);
  // A torn tail (e.g. power cut on a non-atomic filesystem) loses the
  // checksum trailer entirely or leaves it dangling mid-line.
  for (const std::size_t keep :
       {text.size() / 2, text.size() - 3, std::size_t{10}}) {
    write_file_atomic(path, text.substr(0, keep));
    const CheckpointLoadReport report = load_checkpoint(path);
    EXPECT_FALSE(report.clean()) << "kept " << keep << " bytes";
    EXPECT_TRUE(report.quarantined);
  }
}

// The writer's checksum, re-derived so the test can forge a *consistent*
// file of the wrong shape (bad magic / future version) and prove the parse
// layer refuses it even when the trailer verifies.
std::string forge(const std::string& body) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : body) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return body + "checksum " + hex + "\n";
}

TEST_F(Checkpoint, BadMagicQuarantines) {
  const std::string path = checkpoint_path(test_dir());
  write_file_atomic(path, forge("not-a-ckpt v1\nepoch 1 1.0\n"));
  const CheckpointLoadReport report = load_checkpoint(path);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.quarantined);
  EXPECT_NE(report.reason.find("not a stac checkpoint"), std::string::npos);
}

TEST_F(Checkpoint, FutureVersionQuarantines) {
  const std::string path = checkpoint_path(test_dir());
  write_file_atomic(path, forge("stac-ckpt v999\nepoch 1 1.0\n"));
  const CheckpointLoadReport report = load_checkpoint(path);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.quarantined);
  EXPECT_NE(report.reason.find("version"), std::string::npos);
}

TEST_F(Checkpoint, InjectedWriteFaultLeavesOldFileIntact) {
  const std::string path = checkpoint_path(test_dir());
  ControllerCheckpoint first = sample_checkpoint();
  first.epoch = 1;
  save_checkpoint(path, first);
  const std::string before = read_all(path);

  {
    FaultPlan plan;
    plan.seed = 11;
    plan.add({.point = "serve.checkpoint.write",
              .action = FaultAction::kThrow,
              .every_nth = 1});
    FaultScope chaos(std::move(plan));
    ControllerCheckpoint second = sample_checkpoint();
    second.epoch = 2;
    EXPECT_THROW(save_checkpoint(path, second), InjectedFault);
  }

  // The old checkpoint is byte-identical and still loads clean.
  EXPECT_EQ(read_all(path), before);
  const CheckpointLoadReport report = load_checkpoint(path);
  ASSERT_TRUE(report.clean()) << report.reason;
  EXPECT_EQ(report.checkpoint->epoch, 1u);
}

TEST_F(Checkpoint, InjectedLoadFaultQuarantines) {
  const std::string path = checkpoint_path(test_dir());
  save_checkpoint(path, sample_checkpoint());
  FaultPlan plan;
  plan.seed = 12;
  plan.add({.point = "serve.checkpoint.load",
            .action = FaultAction::kThrow,
            .every_nth = 1});
  FaultScope chaos(std::move(plan));
  const CheckpointLoadReport report = load_checkpoint(path);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.quarantined);
}

TEST_F(Checkpoint, WhitespaceLibraryRefIsRejectedAtWriteTime) {
  ControllerCheckpoint c = sample_checkpoint();
  c.library_ref = "bad ref with spaces";
  EXPECT_THROW(save_checkpoint(checkpoint_path(test_dir()) + ".ws", c),
               ContractViolation);
}

TEST_F(AtomicFile, WriteReplacesAtomicallyAndReadsBack) {
  const std::string path = test_dir() + "/atomic_probe.txt";
  write_file_atomic(path, "first");
  EXPECT_EQ(read_all(path), "first");
  write_file_atomic(path, "second, longer than the first");
  EXPECT_EQ(read_all(path), "second, longer than the first");
  // No temp file left behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(AtomicFile, ReadMissingFileReturnsFalse) {
  std::string out = "sentinel";
  EXPECT_FALSE(read_file(test_dir() + "/nope.txt", out));
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace stac::serve
