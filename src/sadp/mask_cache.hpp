// Fingerprint-keyed LRU cache over whole decomposeLayer results
// (DESIGN.md §5.11).
//
// The decomposition is a pure function of (fragment sequence, design
// rules, the output-affecting options). The bound RunContext (thread
// count, metrics sink) is byte-identity-neutral by the repo's determinism
// contract, so it is deliberately EXCLUDED from the key: a request run
// under another context still hits. Keys are 128-bit
// content digests; collisions are assumed negligible and the honesty test
// (tests/test_mask_cache.cpp) pins the contract that a key hit returns a
// byte-identical plane.
//
// The cache is shared across sessions and threads (one mutex; entries are
// immutable shared_ptrs so readers keep hits alive across evictions) and
// evicts least-recently-used entries beyond a byte budget.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "sadp/decompose.hpp"

namespace sadp {

/// 128-bit content digest identifying one decomposition input.
struct MaskCacheKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const MaskCacheKey&, const MaskCacheKey&) = default;
};

struct MaskCacheKeyHash {
  std::size_t operator()(const MaskCacheKey& k) const {
    return std::size_t(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Digest of everything decomposeLayer's OUTPUT depends on: the exact
/// fragment sequence (coords, net, color), every DesignRules field, and
/// the output-affecting DecomposeOptions (insertAssists, mergeCores,
/// trimAssists, margin).
MaskCacheKey maskCacheKey(std::span<const ColoredFragment> frags,
                          const DesignRules& rules,
                          const DecomposeOptions& opts);

struct MaskCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t entries = 0;
  std::int64_t bytes = 0;
};

class MaskCache {
 public:
  static constexpr std::size_t kDefaultMaxBytes = 256ull << 20;  // 256 MiB

  explicit MaskCache(std::size_t maxBytes = kDefaultMaxBytes)
      : maxBytes_(maxBytes) {}

  MaskCache(const MaskCache&) = delete;
  MaskCache& operator=(const MaskCache&) = delete;

  /// Returns the cached plane (bumping it most-recently-used) or null.
  std::shared_ptr<const LayerDecomposition> lookup(const MaskCacheKey& key);

  /// Inserts (or refreshes) an entry, then evicts LRU entries until the
  /// byte budget holds. An entry larger than the whole budget is still
  /// admitted alone (callers own a shared_ptr; memory stays bounded).
  /// Returns the resident entry: the inserted value, or -- on a concurrent
  /// double-compute -- the byte-identical one that got there first.
  std::shared_ptr<const LayerDecomposition> insert(const MaskCacheKey& key,
                                                   LayerDecomposition value);

  MaskCacheStats stats() const;
  void clear();

 private:
  struct Entry {
    MaskCacheKey key;
    std::shared_ptr<const LayerDecomposition> value;
    std::size_t bytes = 0;
  };

  static std::size_t approxBytes(const LayerDecomposition& d);
  void evictOverBudgetLocked();

  const std::size_t maxBytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<MaskCacheKey, std::list<Entry>::iterator,
                     MaskCacheKeyHash>
      index_;
  std::size_t bytes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace sadp
