// Hot-swap correctness: readers pin a coherent bundle across concurrent
// publishes (no torn reads), retired bundles are reclaimed only once
// unpinned, and slot exhaustion degrades to the mutex path — not UB.
#include "serve/model_snapshot.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace stac::serve {
namespace {

std::atomic<int> live_payloads{0};

struct Payload {
  explicit Payload(std::uint64_t s) : stamp(s) {
    for (auto& v : body) v = s;
    ++live_payloads;
  }
  ~Payload() { --live_payloads; }
  // A torn read (bundle freed or overwritten mid-use) breaks the
  // all-fields-equal invariant.
  [[nodiscard]] bool coherent() const {
    for (const auto& v : body) {
      if (v != stamp) return false;
    }
    return true;
  }
  std::uint64_t stamp;
  std::array<std::uint64_t, 64> body{};
};

TEST(ModelSnapshot, NullGuardBeforeFirstPublish) {
  ModelSnapshot<Payload> snap;
  EXPECT_EQ(snap.version(), 0u);
  const auto guard = snap.acquire();
  EXPECT_FALSE(guard);
  EXPECT_EQ(guard.get(), nullptr);
}

TEST(ModelSnapshot, PublishThenAcquireSeesLatest) {
  ModelSnapshot<Payload> snap;
  snap.publish(std::make_unique<const Payload>(7));
  EXPECT_EQ(snap.version(), 1u);
  {
    const auto guard = snap.acquire();
    ASSERT_TRUE(guard);
    EXPECT_EQ(guard->stamp, 7u);
  }
  snap.publish(std::make_unique<const Payload>(8));
  EXPECT_EQ(snap.version(), 2u);
  const auto guard = snap.acquire();
  EXPECT_EQ(guard->stamp, 8u);
}

TEST(ModelSnapshot, PinnedBundleOutlivesItsReplacement) {
  const int live_before = live_payloads.load();
  {
    ModelSnapshot<Payload> snap;
    snap.publish(std::make_unique<const Payload>(1));
    auto guard = snap.acquire();  // pin v1

    snap.publish(std::make_unique<const Payload>(2));
    // v1 is retired but must not be reclaimed while the guard lives.
    EXPECT_EQ(snap.retired_count(), 1u);
    EXPECT_TRUE(guard->coherent());
    EXPECT_EQ(guard->stamp, 1u);
    EXPECT_EQ(live_payloads.load(), live_before + 2);

    { const auto drop = std::move(guard); }  // release the pin
    snap.publish(std::make_unique<const Payload>(3));
    // With no reader pinning anything, the publish sweeps both v1 and the
    // just-retired v2 — only v3 stays live.
    EXPECT_EQ(snap.retired_count(), 0u);
    EXPECT_EQ(live_payloads.load(), live_before + 1);
  }
  // Destructor reclaims everything (current + retired).
  EXPECT_EQ(live_payloads.load(), live_before);
}

TEST(ModelSnapshot, SlotExhaustionFallsBackToMutexPath) {
  ModelSnapshot<Payload> snap;
  snap.publish(std::make_unique<const Payload>(42));
  std::vector<ModelSnapshot<Payload>::ReadGuard> guards;
  guards.reserve(ModelSnapshot<Payload>::kSlots + 1);
  for (std::size_t i = 0; i < ModelSnapshot<Payload>::kSlots; ++i)
    guards.push_back(snap.acquire());
  // Slot 65: mutex fallback — still a valid pin, not a crash.
  const auto extra = snap.acquire();
  ASSERT_TRUE(extra);
  EXPECT_EQ(extra->stamp, 42u);
  for (const auto& g : guards) EXPECT_EQ(g->stamp, 42u);
}

TEST(ModelSnapshot, SwapUnderLoadNeverTearsAReader) {
  const int live_before = live_payloads.load();
  {
    ModelSnapshot<Payload> snap;
    snap.publish(std::make_unique<const Payload>(1));

    constexpr int kReaders = 3;
    constexpr std::uint64_t kReadsEach = 3000;
    std::atomic<int> readers_done{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        std::uint64_t last = 0;
        // Read past the quota until a swap has been seen (stamp > 1), so
        // every reader overlaps at least one publish however the threads
        // are scheduled.
        for (std::uint64_t i = 0; i < kReadsEach || last < 2; ++i) {
          const auto guard = snap.acquire();
          ASSERT_TRUE(guard);
          ASSERT_TRUE(guard->coherent());
          // Versions are observed monotonically per reader.
          ASSERT_GE(guard->stamp, last);
          last = guard->stamp;
        }
        readers_done.fetch_add(1, std::memory_order_release);
      });
    }

    // Publish continuously until every reader finished, so the swaps
    // genuinely overlap the reads even on a single-core scheduler.
    std::uint64_t published = 1;
    while (readers_done.load(std::memory_order_acquire) < kReaders) {
      snap.publish(std::make_unique<const Payload>(++published));
      if (published % 64 == 0) std::this_thread::yield();
    }
    for (auto& t : readers) t.join();
    EXPECT_GE(published, 2u);
    EXPECT_EQ(snap.version(), published);
  }
  EXPECT_EQ(live_payloads.load(), live_before);  // nothing leaked
}

}  // namespace
}  // namespace stac::serve
