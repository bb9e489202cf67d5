// Helpers shared by the ml tests: growing a training set the way a refit
// does (a fresh Dataset over more rows), and counting rank-table builds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ml/dataset.hpp"
#include "obs/metrics.hpp"

namespace stac::ml {

/// `base` followed by the rows of `extra`, as one fresh dataset.
inline Dataset concat(const Dataset& base, const Dataset& extra) {
  Matrix x = base.features();
  std::vector<double> y = base.targets();
  for (std::size_t i = 0; i < extra.size(); ++i) {
    x.append_row(extra.row(i));
    y.push_back(extra.target(i));
  }
  return Dataset(std::move(x), std::move(y));
}

/// `ml.rank_builds` added while `fn` runs (obs switched on meanwhile).
template <class Fn>
std::uint64_t rank_builds(Fn&& fn) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t before = reg.counter_value("ml.rank_builds");
  fn();
  obs::set_enabled(was_enabled);
  return reg.counter_value("ml.rank_builds") - before;
}

}  // namespace stac::ml
