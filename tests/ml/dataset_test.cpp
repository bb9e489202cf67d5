#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "ml/test_util.hpp"

namespace stac::ml {
namespace {

Dataset small_dataset(std::size_t n = 20) {
  Matrix x(0, 2);
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(i);
    x.append_row(std::vector<double>{a, a * a});
    y.push_back(a * 3.0);
  }
  return Dataset(std::move(x), std::move(y), {"a", "a2"});
}

TEST(Dataset, ConstructionValidation) {
  Matrix x(2, 2);
  EXPECT_THROW(Dataset(x, {1.0}), ContractViolation);
  EXPECT_THROW(Dataset(x, {1.0, 2.0}, {"only-one"}), ContractViolation);
}

TEST(Dataset, RowAccessAndTarget) {
  const Dataset d = small_dataset();
  EXPECT_EQ(d.size(), 20u);
  EXPECT_EQ(d.feature_count(), 2u);
  EXPECT_DOUBLE_EQ(d.row(3)[0], 3.0);
  EXPECT_DOUBLE_EQ(d.target(3), 9.0);
  EXPECT_EQ(d.feature_names()[1], "a2");
}

TEST(Dataset, SubsetPreservesRows) {
  const Dataset d = small_dataset();
  const Dataset s = d.subset({1, 5, 7});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.target(1), 15.0);
  EXPECT_DOUBLE_EQ(s.row(2)[1], 49.0);
}

TEST(Dataset, SplitSizesAndDisjoint) {
  const Dataset d = small_dataset(100);
  Rng rng(5);
  const auto [train, test] = d.split(0.33, rng);
  EXPECT_EQ(train.size(), 33u);
  EXPECT_EQ(test.size(), 67u);
  // Disjoint: targets are unique in this dataset, so compare sets.
  std::set<double> seen;
  for (std::size_t i = 0; i < train.size(); ++i) seen.insert(train.target(i));
  for (std::size_t i = 0; i < test.size(); ++i)
    EXPECT_EQ(seen.count(test.target(i)), 0u);
}

TEST(Dataset, KFoldPartitionsCompletely) {
  const Dataset d = small_dataset(30);
  Rng rng(7);
  const auto folds = d.kfold(5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::multiset<double> all_test;
  for (const auto& [train, test] : folds) {
    EXPECT_EQ(train.size() + test.size(), 30u);
    EXPECT_EQ(test.size(), 6u);
    for (std::size_t i = 0; i < test.size(); ++i)
      all_test.insert(test.target(i));
  }
  EXPECT_EQ(all_test.size(), 30u);  // every row tested exactly once
}

TEST(Dataset, WithExtraFeatures) {
  const Dataset d = small_dataset(4);
  Matrix extra(4, 1);
  for (std::size_t i = 0; i < 4; ++i) extra(i, 0) = 100.0 + i;
  const Dataset aug = d.with_extra_features(extra);
  EXPECT_EQ(aug.feature_count(), 3u);
  EXPECT_DOUBLE_EQ(aug.row(2)[2], 102.0);
  Matrix bad(3, 1);
  EXPECT_THROW(d.with_extra_features(bad), ContractViolation);
}

TEST(Dataset, ColumnViewMatchesRowMajorData) {
  const Dataset d = small_dataset(6);
  const auto c0 = d.column(0);
  const auto c1 = d.column(1);
  ASSERT_EQ(c0.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(c0[i], d.row(i)[0]);
    EXPECT_DOUBLE_EQ(c1[i], d.row(i)[1]);
  }
}

// The column cache is built once: every call returns a span over the same
// buffer, with the dataset's row count.
TEST(Dataset, ColumnGeometryComesFromBuildSnapshot) {
  const Dataset d = small_dataset(5);
  const auto first = d.column(1);
  const auto again = d.column(1);
  ASSERT_EQ(first.size(), 5u);
  EXPECT_EQ(first.data(), again.data());
  EXPECT_EQ(d.column(0).data() + 5, first.data());  // column-major, packed
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(first[i], d.row(i)[1]);
}

// TSan stress: many threads race through the double-checked cache build and
// read every column concurrently — the access pattern of parallel forest
// training over one shared level dataset during cascade fits.  Run under
// -fsanitize=thread in CI; in a plain build it still verifies every view is
// bitwise correct.
TEST(Dataset, TSanConcurrentColumnReadsDuringCascadeTraining) {
  for (int round = 0; round < 8; ++round) {
    const Dataset d = small_dataset(64);  // fresh dataset: cold cache
    constexpr std::size_t kThreads = 8;
    std::atomic<int> errors{0};
    std::vector<std::thread> readers;
    readers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      readers.emplace_back([&d, &errors] {
        for (int iter = 0; iter < 50; ++iter) {
          for (std::size_t f = 0; f < d.feature_count(); ++f) {
            const auto col = d.column(f);
            if (col.size() != d.size()) ++errors;
            for (std::size_t i = 0; i < col.size(); ++i)
              if (col[i] != d.row(i)[f]) ++errors;
          }
        }
      });
    }
    for (auto& r : readers) r.join();
    EXPECT_EQ(errors.load(), 0);
  }

  // Same race exercised through the pool the cascade actually uses.
  const Dataset d = small_dataset(128);
  std::atomic<int> errors{0};
  ThreadPool::global().parallel_for(0, 64, [&](std::size_t task) {
    const std::size_t f = task % d.feature_count();
    const auto col = d.column(f);
    for (std::size_t i = 0; i < col.size(); ++i)
      if (col[i] != d.row(i)[f]) ++errors;
  });
  EXPECT_EQ(errors.load(), 0);
}

TEST(Dataset, ColumnSurvivesCopy) {
  const Dataset d = small_dataset(4);
  (void)d.column(1);  // warm the cache on the source
  const Dataset copy = d;  // cache is dropped, not shared
  const auto col = copy.column(1);
  ASSERT_EQ(col.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(col[i], copy.row(i)[1]);
}

/// Number of ranks in use: the largest rank plus one.
std::uint32_t rank_count(const Dataset& d, std::size_t f) {
  const auto rk = d.ranks(f);
  return rk.empty() ? 0 : *std::max_element(rk.begin(), rk.end()) + 1;
}

/// Ranks order rows exactly as their values compare, and use every rank
/// from 0 up: along the rows in value order, the rank starts at 0 and
/// steps by one exactly where the value strictly grows.
void expect_dense_value_ranks(const Dataset& d, std::size_t f) {
  const auto col = d.column(f);
  const auto rk = d.ranks(f);
  ASSERT_EQ(rk.size(), d.size());
  std::vector<std::size_t> by_value(d.size());
  for (std::size_t r = 0; r < d.size(); ++r) by_value[r] = r;
  std::sort(by_value.begin(), by_value.end(),
            [&](std::size_t a, std::size_t b) { return col[a] < col[b]; });
  std::uint32_t want = 0;
  for (std::size_t i = 0; i < by_value.size(); ++i) {
    if (i > 0 && col[by_value[i - 1]] < col[by_value[i]]) ++want;
    ASSERT_EQ(rk[by_value[i]], want) << "row " << by_value[i];
  }
}

TEST(Dataset, RanksAreDenseAndAscending) {
  // Integer counters with many zeros and repeats, plus a continuous column.
  Rng rng(3);
  Matrix x(0, 3);
  std::vector<double> y;
  for (std::size_t i = 0; i < 90; ++i) {
    const double c = rng.uniform() < 0.5 ? 0.0 : std::floor(rng.uniform() * 6);
    x.append_row(std::vector<double>{c, rng.uniform() - 0.5, 4.0});
    y.push_back(c);
  }
  const Dataset d(std::move(x), std::move(y));
  for (std::size_t f = 0; f < d.feature_count(); ++f)
    expect_dense_value_ranks(d, f);
  EXPECT_LE(rank_count(d, 0), 6u);
  EXPECT_EQ(rank_count(d, 1), 90u);
  EXPECT_EQ(rank_count(d, 2), 1u);  // constant column: one rank
}

TEST(Dataset, RanksOfLargeColumnsAreDenseAndAscending) {
  // Thousands of rows with negatives, signed zeros, infinities, huge and
  // subnormal magnitudes, repeats.
  Rng rng(4);
  constexpr double kSpecial[] = {-0.0, 0.0, -1e300, 1e300, 5e-324, -5e-324,
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::infinity()};
  Matrix x(0, 3);
  for (std::size_t i = 0; i < 3000; ++i) {
    const double special = kSpecial[rng.uniform_index(8)];
    const double mixed = rng.uniform() < 0.3 ? special : rng.normal(0.0, 1e3);
    x.append_row(std::vector<double>{mixed, std::round(rng.normal(0.0, 4.0)),
                                     rng.uniform() - 0.5});
  }
  const Dataset d(std::move(x), std::vector<double>(3000, 0.0));
  for (std::size_t f = 0; f < d.feature_count(); ++f)
    expect_dense_value_ranks(d, f);
  EXPECT_EQ(rank_count(d, 2), 3000u);
}

TEST(Dataset, SignedZerosShareARank) {
  Matrix x(0, 1);
  for (const double v : {0.0, -1.0, -0.0, 2.0, 0.0, -0.0})
    x.append_row(std::vector<double>{v});
  const Dataset d(std::move(x), std::vector<double>(6, 1.0));
  const auto rk = d.ranks(0);
  EXPECT_EQ(rank_count(d, 0), 3u);
  EXPECT_EQ(rk[1], 0u);
  for (const std::size_t r : {0u, 2u, 4u, 5u}) EXPECT_EQ(rk[r], 1u) << r;
  EXPECT_EQ(rk[3], 2u);
  expect_dense_value_ranks(d, 0);
}

TEST(Dataset, CopyDropsRankTable) {
  const Dataset d = small_dataset(12);
  EXPECT_EQ(rank_builds([&] { (void)d.ranks(0); }), 1u);
  // Every column was ranked by that one build.
  EXPECT_EQ(rank_builds([&] {
              (void)d.ranks(1);
              (void)d.ranks(0);
            }),
            0u);
  Dataset copy = d;
  EXPECT_EQ(rank_builds([&] { (void)copy.ranks(1); }), 1u);
  EXPECT_EQ(std::memcmp(copy.ranks(1).data(), d.ranks(1).data(),
                        12 * sizeof(std::uint32_t)),
            0);
  copy = small_dataset(7);  // assignment drops the table too
  EXPECT_EQ(rank_builds([&] { EXPECT_EQ(copy.ranks(0).size(), 7u); }), 1u);
}

// TSan stress: first rank-table builds race from many threads, the access
// pattern of a forest's trees starting their fits on one fresh dataset.
TEST(Dataset, TSanConcurrentFirstRankBuilds) {
  for (int round = 0; round < 8; ++round) {
    const Dataset d = small_dataset(64);
    std::atomic<int> errors{0};
    const std::uint64_t builds = rank_builds([&] {
      ThreadPool::global().parallel_for(0, 16, [&](std::size_t task) {
        const std::size_t f = task % d.feature_count();
        const auto rk = d.ranks(f);
        // small_dataset's columns ascend with the row: rank == row.
        for (std::size_t i = 0; i < rk.size(); ++i)
          if (rk[i] != i) ++errors;
      });
    });
    EXPECT_EQ(builds, 1u);
    EXPECT_EQ(errors.load(), 0);
  }
}

}  // namespace
}  // namespace stac::ml
