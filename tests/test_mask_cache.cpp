// MaskCache contract tests (DESIGN.md §5.11): a key hit returns a
// byte-identical plane, hit/miss/eviction accounting is deterministic,
// and the key covers exactly the output-affecting inputs.
#include <gtest/gtest.h>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "sadp/decompose.hpp"
#include "sadp/mask_cache.hpp"

namespace sadp {
namespace {

BenchmarkSpec tinySpec(std::uint64_t seed = 7) {
  BenchmarkSpec s;
  s.name = "cache-tiny";
  s.netCount = 30;
  s.width = 48;
  s.height = 48;
  s.seed = seed;
  return s;
}

/// Routed fragments of layer `layer` of a tiny deterministic instance.
std::vector<ColoredFragment> routedFragments(int layer,
                                             std::uint64_t seed = 7) {
  BenchmarkInstance inst = makeBenchmark(tinySpec(seed));
  OverlayAwareRouter router(inst.grid, inst.netlist);
  router.run();
  return router.coloredFragments(layer);
}

void expectSamePlanes(const LayerDecomposition& a,
                      const LayerDecomposition& b) {
  EXPECT_EQ(maskFingerprint(a), maskFingerprint(b));
  EXPECT_EQ(a.target.words(), b.target.words());
  EXPECT_EQ(a.coreMask.words(), b.coreMask.words());
  EXPECT_EQ(a.spacer.words(), b.spacer.words());
  EXPECT_EQ(a.cut.words(), b.cut.words());
  EXPECT_EQ(a.assists.words(), b.assists.words());
  EXPECT_EQ(a.bridges.words(), b.bridges.words());
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.conflictBoxesNm, b.conflictBoxesNm);
  EXPECT_EQ(a.hardOverlayBoxesNm, b.hardOverlayBoxesNm);
  EXPECT_EQ(a.windowNm, b.windowNm);
}

TEST(MaskCache, HitReturnsByteIdenticalPlane) {
  const std::vector<ColoredFragment> frags = routedFragments(0);
  const DesignRules rules{};
  const LayerDecomposition ref = decomposeLayer(frags, rules);  // uncached

  MaskCache cache;
  DecomposeOptions opts;
  opts.cache = &cache;
  const LayerDecomposition miss = decomposeLayer(frags, rules, opts);
  const LayerDecomposition hit = decomposeLayer(frags, rules, opts);

  const MaskCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.entries, 1);
  expectSamePlanes(ref, miss);
  expectSamePlanes(ref, hit);
}

TEST(MaskCache, KeyCoversOutputAffectingInputs) {
  const std::vector<ColoredFragment> frags = routedFragments(0);
  const DesignRules rules{};
  const DecomposeOptions base;
  const MaskCacheKey k0 = maskCacheKey(frags, rules, base);

  DecomposeOptions noAssists = base;
  noAssists.insertAssists = false;
  EXPECT_NE(k0, maskCacheKey(frags, rules, noAssists));

  DecomposeOptions noMerge = base;
  noMerge.mergeCores = false;
  EXPECT_NE(k0, maskCacheKey(frags, rules, noMerge));

  DecomposeOptions wideMargin = base;
  wideMargin.margin = base.margin + 10;
  EXPECT_NE(k0, maskCacheKey(frags, rules, wideMargin));

  DesignRules otherRules{};
  otherRules.wCut += 10;
  EXPECT_NE(k0, maskCacheKey(frags, otherRules, base));

  // Fragment order and content participate.
  std::vector<ColoredFragment> reversed(frags.rbegin(), frags.rend());
  const bool sameSequence =
      std::equal(reversed.begin(), reversed.end(), frags.begin(),
                 [](const ColoredFragment& a, const ColoredFragment& b) {
                   return a.frag == b.frag && a.color == b.color;
                 });
  if (reversed.size() > 1 && !sameSequence) {
    EXPECT_NE(k0, maskCacheKey(reversed, rules, base));
  }
  std::vector<ColoredFragment> flipped = frags;
  flipped.front().color =
      flipped.front().color == Color::Core ? Color::Second : Color::Core;
  EXPECT_NE(k0, maskCacheKey(flipped, rules, base));
}

TEST(MaskCache, EvictsLeastRecentlyUsedDeterministically) {
  const DesignRules rules{};
  const DecomposeOptions base;
  // Three distinct inputs: the three layers of the routed instance.
  std::vector<std::vector<ColoredFragment>> inputs;
  for (int layer = 0; layer < 3; ++layer) {
    inputs.push_back(routedFragments(layer));
  }

  auto runSequence = [&](MaskCache& cache) {
    DecomposeOptions opts = base;
    opts.cache = &cache;
    for (const auto& frags : inputs) decomposeLayer(frags, rules, opts);
    // Re-request the LAST input: with a 1-byte budget only the most
    // recent entry survives, so exactly this one hits.
    decomposeLayer(inputs.back(), rules, opts);
    decomposeLayer(inputs.front(), rules, opts);  // evicted -> miss
    return cache.stats();
  };

  MaskCache tiny(1);  // keeps exactly one (the newest) entry
  const MaskCacheStats s = runSequence(tiny);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 4);
  EXPECT_GE(s.evictions, 3);
  EXPECT_EQ(s.entries, 1);

  // Identical sequence, fresh cache: identical accounting.
  MaskCache again(1);
  const MaskCacheStats s2 = runSequence(again);
  EXPECT_EQ(s.hits, s2.hits);
  EXPECT_EQ(s.misses, s2.misses);
  EXPECT_EQ(s.evictions, s2.evictions);
  EXPECT_EQ(s.entries, s2.entries);
  EXPECT_EQ(s.bytes, s2.bytes);
}

TEST(MaskCache, LookupKeepsEntryAliveAcrossEviction) {
  const std::vector<ColoredFragment> a = routedFragments(0);
  const std::vector<ColoredFragment> b = routedFragments(1);
  const DesignRules rules{};
  const DecomposeOptions base;

  MaskCache cache(1);
  cache.insert(maskCacheKey(a, rules, base), decomposeLayer(a, rules));
  const std::shared_ptr<const LayerDecomposition> held =
      cache.lookup(maskCacheKey(a, rules, base));
  ASSERT_TRUE(held);
  cache.insert(maskCacheKey(b, rules, base), decomposeLayer(b, rules));
  // `a` was evicted but the shared_ptr keeps the plane readable.
  EXPECT_FALSE(cache.lookup(maskCacheKey(a, rules, base)));
  EXPECT_EQ(maskFingerprint(*held),
            maskFingerprint(decomposeLayer(a, rules)));
}

TEST(MaskCache, ClearResetsEntriesButKeepsTotals) {
  const std::vector<ColoredFragment> frags = routedFragments(0);
  const DesignRules rules{};
  MaskCache cache;
  DecomposeOptions opts;
  opts.cache = &cache;
  decomposeLayer(frags, rules, opts);
  decomposeLayer(frags, rules, opts);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  decomposeLayer(frags, rules, opts);
  EXPECT_EQ(cache.stats().misses, 2);  // cleared -> recompute once more
  EXPECT_EQ(cache.stats().hits, 1);
}

}  // namespace
}  // namespace sadp
