#include "core/rt_prediction_cache.hpp"

#include <bit>

#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"

namespace stac::core {

GGkSummary GGkSummary::of(queueing::GGkResult result) {
  GGkSummary s;
  s.mean_rt = result.response_times.mean();
  if (!result.response_times.empty())
    s.p95_rt = result.response_times.select_percentile(0.95);
  s.mean_queue_delay = result.mean_queue_delay;
  s.completed = result.completed;
  s.boosted_queries = result.boosted_queries;
  return s;
}

RtPredictionCache::Key RtPredictionCache::make_key(
    const queueing::GGkConfig& c) {
  return {std::bit_cast<std::uint64_t>(c.utilization),
          std::bit_cast<std::uint64_t>(c.mean_service),
          std::bit_cast<std::uint64_t>(c.service_cv),
          std::bit_cast<std::uint64_t>(c.timeout_rel),
          std::bit_cast<std::uint64_t>(c.effective_allocation),
          std::bit_cast<std::uint64_t>(c.allocation_ratio),
          std::bit_cast<std::uint64_t>(c.residual_weight),
          std::bit_cast<std::uint64_t>(c.boost_prevalence),
          static_cast<std::uint64_t>(c.servers),
          static_cast<std::uint64_t>(c.queries),
          static_cast<std::uint64_t>(c.warmup),
          c.seed,
          c.class_level_boost ? 1ULL : 0ULL};
}

std::size_t RtPredictionCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t word : k) {
    h ^= word;
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

GGkSummary RtPredictionCache::simulate(const queueing::GGkConfig& config) {
  // With chaos armed the simulator consults the global FaultInjector per
  // service draw — results depend on hidden state, so never cache (in
  // either direction: no lookups, no inserts).
  if (!enabled_ || FaultInjector::global().armed())
    return GGkSummary::of(queueing::simulate_ggk(config));

  const Key key = make_key(config);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = map_.find(key); it != map_.end()) {
      ++stats_.hits;
      obs::MetricsRegistry::global().counter("rt_cache.hits").add();
      return it->second;
    }
  }
  obs::MetricsRegistry::global().counter("rt_cache.misses").add();
  const GGkSummary result = GGkSummary::of(queueing::simulate_ggk(config));
  std::size_t entries = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    if (map_.size() >= capacity_) map_.clear();  // epoch flush, like CRN cache
    map_.try_emplace(key, result);  // a racing identical insert may win: fine
    entries = map_.size();
  }
  obs::MetricsRegistry::global().gauge("rt_cache.size").set(
      static_cast<double>(entries));
  return result;
}

RtPredictionCache::Stats RtPredictionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RtPredictionCache::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    stats_ = {};
  }
  obs::MetricsRegistry::global().gauge("rt_cache.size").set(0.0);
}

std::size_t RtPredictionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace stac::core
