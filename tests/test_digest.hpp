// FNV-1a digest over raw bytes, for golden-output tests.
//
// A golden test hashes the bit patterns of every output a change must not
// move (doubles included, so -0.0 and +0.0 differ) and compares the hash
// with one recorded from a reference implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace stac {

struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void put(T v) {
    bytes(&v, sizeof v);
  }
  void put_doubles(const std::vector<double>& v) {
    put(v.size());
    for (const double d : v) put(d);
  }
};

}  // namespace stac
