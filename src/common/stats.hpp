// Statistics utilities shared by the testbed, the queueing model, the ML
// stack and every experiment harness: streaming moments, exact percentiles
// over retained samples, histograms, and error metrics (absolute percent
// error is the paper's headline accuracy measure).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace stac {

/// Single-pass mean/variance/min/max (Welford).  O(1) memory; use
/// SampleStats when percentiles are needed.
class StreamingStats {
 public:
  void add(double x);
  void merge(const StreamingStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n−1 denominator, numpy's ddof=1 / Bessel
  /// convention); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  /// Biased population variance (n denominator, numpy's default ddof=0).
  [[nodiscard]] double population_variance() const;
  [[nodiscard]] double stddev() const;  ///< sqrt of the sample variance
  /// NaN when empty (never the ±infinity fill sentinels).
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Coefficient of variation (sample stddev / |mean|); 0 when mean == 0.
  [[nodiscard]] double cv() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples; exact quantiles via linear interpolation between
/// order statistics (type-7, same convention as numpy.percentile).  The
/// first order-statistic query sorts the samples in place, so an instance
/// shared between threads must not be queried concurrently.
class SampleStats {
 public:
  SampleStats() = default;
  explicit SampleStats(std::vector<double> samples);

  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  /// Sum taken in insertion order, so the value does not depend on
  /// whether a percentile query has sorted the samples.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  /// q in [0, 1]; e.g. percentile(0.95) is the 95th percentile.  Throws
  /// ContractViolation on an empty sample set.
  [[nodiscard]] double percentile(double q) const;
  /// percentile(q), or `fallback` when the sample set is empty — the
  /// non-throwing form for paths where zero completions is survivable
  /// (degraded testbed runs, chaos experiments).
  [[nodiscard]] double percentile_or(double q, double fallback) const;
  /// percentile(q) found by selection instead of a full sort: O(n) for
  /// unsorted samples.  It interpolates between the same two order
  /// statistics, so it returns the bit pattern percentile(q) would.  It
  /// leaves the samples partly reordered (unsorted).  Throws
  /// ContractViolation on an empty sample set.
  [[nodiscard]] double select_percentile(double q);
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] std::span<const double> samples() const { return samples_; }

 private:
  /// Type-7 position of quantile q: the lower order statistic's index and
  /// the interpolation weight of the one above it.
  struct Rank {
    std::size_t lo;
    double frac;
  };
  [[nodiscard]] Rank rank(double q) const;
  void ensure_sorted() const;

  std::vector<double> samples_;
  double sum_ = 0.0;
  mutable bool sorted_ = true;
};

/// Fixed-width histogram over [lo, hi); out-of-range values clamp into the
/// edge bins so mass is never silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count(std::size_t b) const;
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_low(std::size_t b) const;
  [[nodiscard]] double bin_high(std::size_t b) const;
  /// Fraction of mass at or below the upper edge of bin b.
  [[nodiscard]] double cumulative_fraction(std::size_t b) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// |predicted - actual| / |actual|, the paper's accuracy metric (Fig. 6).
[[nodiscard]] double absolute_percent_error(double predicted, double actual);

/// Elementwise APE over two equal-length spans.
[[nodiscard]] std::vector<double> absolute_percent_errors(
    std::span<const double> predicted, std::span<const double> actual);

/// Mean absolute error.
[[nodiscard]] double mean_absolute_error(std::span<const double> predicted,
                                         std::span<const double> actual);

/// Root mean squared error.
[[nodiscard]] double rmse(std::span<const double> predicted,
                          std::span<const double> actual);

/// Coefficient of determination.
[[nodiscard]] double r_squared(std::span<const double> predicted,
                               std::span<const double> actual);

/// Pearson correlation.
[[nodiscard]] double pearson(std::span<const double> a,
                             std::span<const double> b);

}  // namespace stac
