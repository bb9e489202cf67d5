#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace stac {

void StreamingStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * m / (n + m);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double StreamingStats::population_variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::min() const {
  return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double StreamingStats::max() const {
  return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
}

double StreamingStats::cv() const {
  return mean_ != 0.0 ? stddev() / std::abs(mean_) : 0.0;
}

SampleStats::SampleStats(std::vector<double> samples)
    : samples_(std::move(samples)), sorted_(false) {
  for (double x : samples_) sum_ += x;
}

void SampleStats::add(double x) {
  samples_.push_back(x);
  sum_ += x;
  sorted_ = false;
}

void SampleStats::ensure_sorted() const {
  if (!sorted_) {
    auto& s = const_cast<std::vector<double>&>(samples_);
    std::sort(s.begin(), s.end());
    const_cast<bool&>(sorted_) = true;
  }
}

double SampleStats::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double SampleStats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double s2 = 0.0;
  for (double x : samples_) s2 += (x - m) * (x - m);
  return std::sqrt(s2 / static_cast<double>(samples_.size()));
}

SampleStats::Rank SampleStats::rank(double q) const {
  STAC_REQUIRE(q >= 0.0 && q <= 1.0);
  STAC_REQUIRE_MSG(!samples_.empty(), "percentile of empty sample set");
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  return {lo, pos - static_cast<double>(lo)};
}

double SampleStats::percentile(double q) const {
  const Rank r = rank(q);
  ensure_sorted();
  if (r.lo + 1 >= samples_.size()) return samples_.back();
  return samples_[r.lo] * (1.0 - r.frac) + samples_[r.lo + 1] * r.frac;
}

double SampleStats::select_percentile(double q) {
  const Rank r = rank(q);
  if (sorted_) return percentile(q);
  if (r.lo + 1 >= samples_.size())
    return *std::max_element(samples_.begin(), samples_.end());
  // The lower order statistic lands at lo; the upper one is the least
  // element of the partition above it.
  const auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(r.lo);
  std::nth_element(samples_.begin(), nth, samples_.end());
  const double upper = *std::min_element(nth + 1, samples_.end());
  return *nth * (1.0 - r.frac) + upper * r.frac;
}

double SampleStats::percentile_or(double q, double fallback) const {
  return samples_.empty() ? fallback : percentile(q);
}

double SampleStats::min() const {
  STAC_REQUIRE(!samples_.empty());
  ensure_sorted();
  return samples_.front();
}

double SampleStats::max() const {
  STAC_REQUIRE(!samples_.empty());
  ensure_sorted();
  return samples_.back();
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  STAC_REQUIRE(hi > lo);
  STAC_REQUIRE(bins > 0);
}

void Histogram::add(double x) {
  auto b = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  b = std::clamp<std::ptrdiff_t>(b, 0,
                                 static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(b)];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t b) const {
  STAC_REQUIRE(b < counts_.size());
  return counts_[b];
}

double Histogram::bin_low(std::size_t b) const {
  return lo_ + width_ * static_cast<double>(b);
}

double Histogram::bin_high(std::size_t b) const {
  return lo_ + width_ * static_cast<double>(b + 1);
}

double Histogram::cumulative_fraction(std::size_t b) const {
  STAC_REQUIRE(b < counts_.size());
  if (total_ == 0) return 0.0;
  std::size_t acc = 0;
  for (std::size_t i = 0; i <= b; ++i) acc += counts_[i];
  return static_cast<double>(acc) / static_cast<double>(total_);
}

double absolute_percent_error(double predicted, double actual) {
  STAC_REQUIRE_MSG(actual != 0.0, "APE undefined for zero actual");
  return std::abs(predicted - actual) / std::abs(actual);
}

std::vector<double> absolute_percent_errors(std::span<const double> predicted,
                                            std::span<const double> actual) {
  STAC_REQUIRE(predicted.size() == actual.size());
  std::vector<double> out;
  out.reserve(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i)
    out.push_back(absolute_percent_error(predicted[i], actual[i]));
  return out;
}

double mean_absolute_error(std::span<const double> predicted,
                           std::span<const double> actual) {
  STAC_REQUIRE(predicted.size() == actual.size());
  STAC_REQUIRE(!predicted.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i)
    sum += std::abs(predicted[i] - actual[i]);
  return sum / static_cast<double>(predicted.size());
}

double rmse(std::span<const double> predicted, std::span<const double> actual) {
  STAC_REQUIRE(predicted.size() == actual.size());
  STAC_REQUIRE(!predicted.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const double d = predicted[i] - actual[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(predicted.size()));
}

double r_squared(std::span<const double> predicted,
                 std::span<const double> actual) {
  STAC_REQUIRE(predicted.size() == actual.size());
  STAC_REQUIRE(!predicted.empty());
  double mean_a = 0.0;
  for (double a : actual) mean_a += a;
  mean_a /= static_cast<double>(actual.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ss_res += (actual[i] - predicted[i]) * (actual[i] - predicted[i]);
    ss_tot += (actual[i] - mean_a) * (actual[i] - mean_a);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double pearson(std::span<const double> a, std::span<const double> b) {
  STAC_REQUIRE(a.size() == b.size());
  STAC_REQUIRE(a.size() >= 2);
  const auto n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  const double denom = std::sqrt(da * db);
  return denom == 0.0 ? 0.0 : num / denom;
}

}  // namespace stac
