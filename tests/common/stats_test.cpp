#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace stac {
namespace {

TEST(StreamingStats, MeanVarianceMinMax) {
  StreamingStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_EQ(st.count(), 8u);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  // Sum of squared deviations is 32: sample variance 32/7, population 32/8.
  EXPECT_DOUBLE_EQ(st.variance(), 32.0 / 7.0);
  EXPECT_DOUBLE_EQ(st.population_variance(), 4.0);
  EXPECT_DOUBLE_EQ(st.stddev(), std::sqrt(32.0 / 7.0));
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
  EXPECT_DOUBLE_EQ(st.cv(), std::sqrt(32.0 / 7.0) / 5.0);
}

// Regression: variance() used to return the biased population estimator
// (m2/n), which understated dispersion — visibly so at the small sample
// counts the stratified sampler and per-rung latency metrics operate on.
TEST(StreamingStats, VarianceIsUnbiasedSampleEstimator) {
  StreamingStats st;
  st.add(1.0);
  st.add(3.0);
  // Two samples, squared deviations sum to 2: sample variance 2/1 = 2,
  // not the population value 2/2 = 1 the old code produced.
  EXPECT_DOUBLE_EQ(st.variance(), 2.0);
  EXPECT_DOUBLE_EQ(st.population_variance(), 1.0);
  EXPECT_DOUBLE_EQ(st.stddev(), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(st.cv(), std::sqrt(2.0) / 2.0);
}

TEST(StreamingStats, EmptyIsSafe) {
  StreamingStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_DOUBLE_EQ(st.mean(), 0.0);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
  EXPECT_DOUBLE_EQ(st.cv(), 0.0);
}

// Regression: min()/max() on an empty accumulator used to leak the
// ±infinity fill sentinels; they now report NaN so downstream consumers
// (metrics JSON, merged per-thread stats) can detect "no data".
TEST(StreamingStats, EmptyMinMaxAreNaNNotSentinels) {
  StreamingStats st;
  EXPECT_TRUE(std::isnan(st.min()));
  EXPECT_TRUE(std::isnan(st.max()));
  StreamingStats other;
  other.add(4.0);
  st.merge(other);  // merging into empty must adopt, not mix with ±inf
  EXPECT_DOUBLE_EQ(st.min(), 4.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
}

TEST(StreamingStats, SingleSampleVarianceIsZero) {
  StreamingStats st;
  st.add(7.0);
  EXPECT_DOUBLE_EQ(st.variance(), 0.0);
  EXPECT_DOUBLE_EQ(st.population_variance(), 0.0);
  EXPECT_DOUBLE_EQ(st.min(), 7.0);
  EXPECT_DOUBLE_EQ(st.max(), 7.0);
}

TEST(StreamingStats, MergeMatchesSinglePass) {
  Rng rng(5);
  StreamingStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(2.0, 3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(SampleStats, ExactPercentiles) {
  SampleStats st({40.0, 10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(st.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(st.percentile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(st.median(), 25.0);
  EXPECT_DOUBLE_EQ(st.percentile(0.25), 17.5);
  EXPECT_DOUBLE_EQ(st.min(), 10.0);
  EXPECT_DOUBLE_EQ(st.max(), 40.0);
}

TEST(SampleStats, IncrementalAddKeepsSorting) {
  SampleStats st;
  st.add(5.0);
  st.add(1.0);
  EXPECT_DOUBLE_EQ(st.median(), 3.0);
  st.add(9.0);
  EXPECT_DOUBLE_EQ(st.median(), 5.0);
}

TEST(SampleStats, PercentileOfEmptyThrows) {
  SampleStats st;
  EXPECT_THROW((void)st.percentile(0.5), ContractViolation);
  EXPECT_THROW((void)st.percentile(-0.1), ContractViolation);
}

// Regression: callers that can legitimately see zero samples (testbed runs
// where every query faulted) need a non-throwing percentile.
TEST(SampleStats, PercentileOrFallsBackOnEmpty) {
  SampleStats st;
  EXPECT_TRUE(std::isnan(
      st.percentile_or(0.95, std::numeric_limits<double>::quiet_NaN())));
  EXPECT_DOUBLE_EQ(st.percentile_or(0.5, -1.0), -1.0);
  st.add(3.0);
  EXPECT_DOUBLE_EQ(st.percentile_or(0.5, -1.0), 3.0);
}

TEST(SampleStats, MeanStddev) {
  SampleStats st({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_NEAR(st.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(SampleStats, MeanDoesNotDependOnSortState) {
  // Summed in this order the mean is 0.25; summed sorted it would be 0.
  SampleStats st({1e16, 1.0, -1e16, 1.0});
  SampleStats added;
  for (const double x : {1e16, 1.0, -1e16, 1.0}) added.add(x);
  EXPECT_EQ(st.mean(), 0.25);
  (void)st.median();  // sorts in place
  EXPECT_EQ(st.mean(), 0.25);
  EXPECT_EQ(added.min(), -1e16);  // sorts in place
  EXPECT_EQ(added.mean(), 0.25);
}

/// select_percentile(q) on a fresh copy against the sort-based
/// percentile(q) on another, compared as bit patterns.
void expect_selection_matches_sort(const std::vector<double>& xs) {
  for (const double q : {0.0, 0.05, 0.5, 0.95, 0.99, 1.0}) {
    SampleStats sorted(xs);
    SampleStats selected(xs);
    const double want = sorted.percentile(q);
    const double got = selected.select_percentile(q);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "n=" << xs.size() << " q=" << q;
    EXPECT_EQ(selected.mean(), sorted.mean());
    EXPECT_EQ(selected.percentile(q), want);  // still queryable afterwards
  }
}

TEST(SampleStats, SelectedPercentileEqualsSortedBitwise) {
  expect_selection_matches_sort({3.5});
  expect_selection_matches_sort({2.0, 1.0});
  expect_selection_matches_sort(std::vector<double>(37, 0.7));
  Rng rng(41);
  std::vector<double> ties;  // five distinct values over 1,201 samples
  for (int i = 0; i < 1201; ++i)
    ties.push_back(std::floor(rng.uniform() * 5.0) * 0.1);
  expect_selection_matches_sort(ties);
  std::vector<double> heavy;  // lognormal sojourn-like, all distinct
  for (int i = 0; i < 1200; ++i)
    heavy.push_back(std::exp(rng.normal(0.0, 1.0)));
  expect_selection_matches_sort(heavy);
}

TEST(SampleStats, SelectedPercentileOfEmptyThrows) {
  SampleStats st;
  EXPECT_THROW((void)st.select_percentile(0.95), ContractViolation);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(3.0);   // bin 1
  h.add(-5.0);  // clamps to bin 0
  h.add(99.0);  // clamps to bin 4
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(1), 0.75);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(4), 1.0);
}

TEST(ErrorMetrics, AbsolutePercentError) {
  EXPECT_DOUBLE_EQ(absolute_percent_error(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(absolute_percent_error(90.0, 100.0), 0.1);
  EXPECT_THROW((void)absolute_percent_error(1.0, 0.0), ContractViolation);
}

TEST(ErrorMetrics, VectorHelpers) {
  const std::vector<double> pred{1.0, 2.0, 4.0};
  const std::vector<double> actual{1.0, 4.0, 2.0};
  const auto apes = absolute_percent_errors(pred, actual);
  ASSERT_EQ(apes.size(), 3u);
  EXPECT_DOUBLE_EQ(apes[0], 0.0);
  EXPECT_DOUBLE_EQ(apes[1], 0.5);
  EXPECT_DOUBLE_EQ(apes[2], 1.0);
  EXPECT_DOUBLE_EQ(mean_absolute_error(pred, actual), 4.0 / 3.0);
  EXPECT_NEAR(rmse(pred, actual), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(ErrorMetrics, RSquaredPerfectAndMeanPredictor) {
  const std::vector<double> actual{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(r_squared(actual, actual), 1.0);
  const std::vector<double> mean_pred{2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(r_squared(mean_pred, actual), 0.0, 1e-12);
}

TEST(ErrorMetrics, PearsonSignAndMagnitude) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  const std::vector<double> c{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(a, c), -1.0, 1e-12);
}

// Property sweep: percentile interpolation is monotone in q.
class PercentileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileMonotone, MonotoneInQ) {
  Rng rng(GetParam());
  SampleStats st;
  for (int i = 0; i < 500; ++i) st.add(rng.normal(0.0, 1.0));
  double prev = st.percentile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = st.percentile(q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace stac
