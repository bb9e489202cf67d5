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
          (c.class_level_boost ? 1ULL : 0ULL) |
              (c.fast_events ? 2ULL : 0ULL)};
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

std::vector<GGkSummary> RtPredictionCache::simulate_batch(
    const std::vector<queueing::GGkConfig>& configs) {
  std::vector<GGkSummary> out(configs.size());
  if (configs.empty()) return out;
  auto& registry = obs::MetricsRegistry::global();

  if (!enabled_ || FaultInjector::global().armed()) {
    // No storage either way, but the cells still share streams and arena.
    auto fresh = queueing::simulate_ggk_batch(configs);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      out[i] = GGkSummary::of(std::move(fresh[i]));
    return out;
  }

  // Resolve hits and collect the distinct missing keys in first-seen order
  // under one lock pass; the simulations run outside the lock.
  constexpr std::size_t kHit = static_cast<std::size_t>(-1);
  std::vector<Key> keys;
  keys.reserve(configs.size());
  for (const queueing::GGkConfig& c : configs) keys.push_back(make_key(c));
  std::unordered_map<Key, std::size_t, KeyHash> miss_slot;
  std::vector<std::size_t> miss_first;  // index of each key's first miss
  std::vector<std::size_t> slot_of(configs.size(), kHit);  // miss slot per i
  std::uint64_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (const auto it = map_.find(keys[i]); it != map_.end()) {
        out[i] = it->second;
        ++hits;
        continue;
      }
      const auto [slot, first] =
          miss_slot.try_emplace(keys[i], miss_first.size());
      if (first)
        miss_first.push_back(i);
      else
        ++hits;  // duplicate of an in-batch miss: resolved without a run
      slot_of[i] = slot->second;
    }
    stats_.hits += hits;
    stats_.misses += miss_first.size();
  }
  registry.counter("rt_cache.hits").add(hits);
  registry.counter("rt_cache.misses").add(miss_first.size());
  if (miss_first.empty()) return out;

  std::vector<queueing::GGkConfig> to_run;
  to_run.reserve(miss_first.size());
  for (const std::size_t i : miss_first) to_run.push_back(configs[i]);
  auto fresh = queueing::simulate_ggk_batch(to_run);

  std::vector<GGkSummary> computed(fresh.size());
  for (std::size_t j = 0; j < fresh.size(); ++j)
    computed[j] = GGkSummary::of(std::move(fresh[j]));
  std::size_t entries = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t j = 0; j < computed.size(); ++j) {
      if (map_.size() >= capacity_) map_.clear();  // epoch flush
      map_.try_emplace(keys[miss_first[j]], computed[j]);
    }
    entries = map_.size();
  }
  registry.gauge("rt_cache.size").set(static_cast<double>(entries));
  for (std::size_t i = 0; i < configs.size(); ++i)
    if (slot_of[i] != kHit) out[i] = computed[slot_of[i]];
  return out;
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
