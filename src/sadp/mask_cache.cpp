#include "sadp/mask_cache.hpp"

namespace sadp {

namespace {

/// Two-lane splitmix64 sponge. Not cryptographic; 128 bits keeps the
/// accidental-collision probability negligible at any plausible cache
/// population, and the honesty test pins what a collision would mean.
struct Digest128 {
  std::uint64_t a = 0x243f6a8885a308d3ull;  // pi
  std::uint64_t b = 0x13198a2e03707344ull;

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }
  void absorb(std::uint64_t v) {
    a = mix(a ^ v);
    b = mix(b + (v ^ 0x9e3779b97f4a7c15ull));
  }
  void absorb(std::int64_t v) { absorb(std::uint64_t(v)); }
  void absorb(std::int32_t v) { absorb(std::uint64_t(std::uint32_t(v))); }
  void absorb(bool v) { absorb(std::uint64_t(v)); }
};

}  // namespace

MaskCacheKey maskCacheKey(std::span<const ColoredFragment> frags,
                          const DesignRules& rules,
                          const DecomposeOptions& opts) {
  Digest128 d;
  d.absorb(std::uint64_t(2));  // key schema version (2: + synth identity)
  // Backend identity. Without this, a cache shared across backends would
  // alias entries: identical fragments/rules/options decompose to entirely
  // different planes under different synthesizers. Null and an explicit
  // SADP backend absorb the same id on purpose — they produce identical
  // planes, so sharing their entries is correct (and the sadp2
  // byte-identity gate depends on the hit/miss sequence not changing).
  d.absorb(opts.synth ? opts.synth->synthId() : kSadpCutSynthId);
  d.absorb(std::uint64_t(frags.size()));
  for (const ColoredFragment& cf : frags) {
    d.absorb(cf.frag.xlo);
    d.absorb(cf.frag.ylo);
    d.absorb(cf.frag.xhi);
    d.absorb(cf.frag.yhi);
    d.absorb(std::int32_t(cf.frag.net));
    d.absorb(std::uint64_t(cf.color));
  }
  d.absorb(rules.wLine);
  d.absorb(rules.wSpacer);
  d.absorb(rules.wCut);
  d.absorb(rules.wCore);
  d.absorb(rules.dCut);
  d.absorb(rules.dCore);
  d.absorb(rules.dOverlap);
  // Output-affecting options only. ctx and cache are byte-identity-neutral
  // (see header) and deliberately excluded.
  d.absorb(opts.insertAssists);
  d.absorb(opts.mergeCores);
  d.absorb(opts.trimAssists);
  d.absorb(opts.margin);
  return {d.a, d.b};
}

std::size_t MaskCache::approxBytes(const LayerDecomposition& d) {
  std::size_t n = sizeof(LayerDecomposition);
  for (const Bitmap* b :
       {&d.target, &d.coreMask, &d.spacer, &d.cut, &d.assists, &d.bridges}) {
    n += b->words().size() * sizeof(std::uint64_t);
  }
  for (const Bitmap& m : d.masks) {
    n += m.words().size() * sizeof(std::uint64_t);
  }
  n += d.conflictBoxesNm.size() * sizeof(Rect);
  n += d.hardOverlayBoxesNm.size() * sizeof(Rect);
  return n;
}

std::shared_ptr<const LayerDecomposition> MaskCache::lookup(
    const MaskCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
  return it->second->value;
}

std::shared_ptr<const LayerDecomposition> MaskCache::insert(
    const MaskCacheKey& key, LayerDecomposition value) {
  auto shared =
      std::make_shared<const LayerDecomposition>(std::move(value));
  const std::size_t bytes = approxBytes(*shared);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent miss on the same key: both workers computed the (byte
    // identical) plane; keep the resident one, just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }
  lru_.push_front(Entry{key, std::move(shared), bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  evictOverBudgetLocked();
  return lru_.front().value;
}

void MaskCache::evictOverBudgetLocked() {
  while (bytes_ > maxBytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

MaskCacheStats MaskCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MaskCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = std::int64_t(lru_.size());
  s.bytes = std::int64_t(bytes_);
  return s;
}

void MaskCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace sadp
