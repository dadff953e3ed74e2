// Physical validation of the cut-process mask synthesizer: for each
// potential overlay scenario, the measured mask geometry must match the
// behavior Table II / Figs. 24-34 describe.
#include "sadp/decompose.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sadp {
namespace {

const DesignRules kRules;  // paper's 10 nm-node instance

Fragment hw(NetId net, Track x0, Track x1, Track y) {
  return Fragment{x0, y, x1, y + 1, net};
}
Fragment vw(NetId net, Track x, Track y0, Track y1) {
  return Fragment{x, y0, x + 1, y1, net};
}

OverlayReport measure(std::vector<ColoredFragment> frags,
                      const DecomposeOptions& opts = {}) {
  return decomposeLayer(frags, kRules, opts).report;
}

TEST(Decompose, FragmentMetalNm) {
  const Rect m = fragmentMetalNm(hw(0, 0, 5, 0), kRules);
  EXPECT_EQ(m, (Rect{10, 10, 190, 30}));
  const Rect v = fragmentMetalNm(vw(0, 2, 1, 4), kRules);
  EXPECT_EQ(v, (Rect{90, 50, 110, 150}));
}

TEST(Decompose, IsolatedCoreWireIsClean) {
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Core}});
  EXPECT_EQ(r.sideOverlayNm, 0);
  EXPECT_EQ(r.hardOverlays, 0);
  EXPECT_EQ(r.cutConflicts(), 0);
  EXPECT_EQ(r.spacerOverTargetPx, 0);
  // A core wire is fully ringed by its own spacer: even tips protected.
  EXPECT_EQ(r.tipOverlays, 0);
}

TEST(Decompose, IsolatedSecondWireHasAssistProtection) {
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Second}});
  EXPECT_EQ(r.sideOverlayNm, 0) << "assist cores must protect both sides";
  EXPECT_EQ(r.hardOverlays, 0);
  EXPECT_EQ(r.cutConflicts(), 0);
  // The two line ends are defined by the cut mask: tip overlays only.
  EXPECT_EQ(r.tipOverlays, 2);
}

TEST(Decompose, IsolatedSecondWireWithoutAssistsIsExposed) {
  DecomposeOptions opts;
  opts.insertAssists = false;
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Second}}, opts);
  EXPECT_GT(r.sideOverlayNm, 0);
  EXPECT_GT(r.hardOverlays, 0);
}

// --- Type 1-a: side-to-side @1 -------------------------------------------

TEST(Decompose, T1a_DifferentColorsClean) {
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Core},
                                   {hw(2, 0, 10, 3), Color::Second}});
  EXPECT_EQ(r.sideOverlayNm, 0);
  EXPECT_EQ(r.cutConflicts(), 0);
}

TEST(Decompose, T1a_SameColorCoreIsHard) {
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Core},
                                   {hw(2, 0, 10, 3), Color::Core}});
  // Cores merge; the separating cut defines both facing sides entirely.
  EXPECT_GE(r.hardOverlays, 2);
  EXPECT_GE(r.sideOverlayNm, 2 * 10 * 40 - 100);  // ~both spans exposed
}

TEST(Decompose, T1a_SameColorSecondIsHard) {
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Second},
                                   {hw(2, 0, 10, 3), Color::Second}});
  EXPECT_GE(r.hardOverlays, 2);
}

// --- Type 2-a: side-to-side @2 -------------------------------------------

TEST(Decompose, T2a_SameColorsClean) {
  for (Color c : {Color::Core, Color::Second}) {
    const OverlayReport r =
        measure({{hw(1, 0, 10, 2), c}, {hw(2, 0, 10, 4), c}});
    EXPECT_EQ(r.sideOverlayNm, 0) << toString(c);
    EXPECT_EQ(r.cutConflicts(), 0) << toString(c);
  }
}

TEST(Decompose, T2a_MixedColorsInduceOverlay) {
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Core},
                                   {hw(2, 0, 10, 4), Color::Second}});
  // The second pattern's assist strip merges with the core wire; the
  // separating cut exposes the core's facing side.
  EXPECT_GT(r.sideOverlayNm, 0);
}

// --- Type 2-b: tip-to-side @2 ---------------------------------------------

// Documented divergence (DESIGN.md §3, EXPERIMENTS.md): the paper's Table II
// charges >=1 side-overlay unit to every type 2-b assignment; our mask
// synthesizer stops assistant cores exactly at line ends, which fully
// protects this tip-to-side@2 geometry. The scenario table (the router's
// cost model) remains paper-faithful; the physical model is simply tighter.
// What must hold physically: no hard overlay and no cut conflict.
TEST(Decompose, T2b_NeverHardNeverConflicting) {
  for (Color ca : {Color::Core, Color::Second}) {
    for (Color cb : {Color::Core, Color::Second}) {
      const OverlayReport r = measure(
          {{hw(1, 0, 10, 6), ca}, {vw(2, 4, 0, 5), cb}});
      EXPECT_EQ(r.hardOverlays, 0) << toString(ca) << toString(cb);
      EXPECT_EQ(r.cutConflicts(), 0) << toString(ca) << toString(cb);
    }
  }
}

// --- Type 2-c: tip-to-tip @1 ------------------------------------------------

TEST(Decompose, T2c_TipToTipNoSideOverlay) {
  for (Color ca : {Color::Core, Color::Second}) {
    for (Color cb : {Color::Core, Color::Second}) {
      const OverlayReport r =
          measure({{hw(1, 0, 5, 2), ca}, {hw(2, 5, 10, 2), cb}});
      EXPECT_EQ(r.sideOverlayNm, 0) << toString(ca) << toString(cb);
      EXPECT_EQ(r.hardOverlays, 0);
      EXPECT_EQ(r.cutConflicts(), 0) << toString(ca) << toString(cb);
    }
  }
}

// --- Type 3-a: diagonal parallel -------------------------------------------

TEST(Decompose, T3a_DifferentColorsClean) {
  const OverlayReport r = measure({{hw(1, 0, 5, 2), Color::Core},
                                   {hw(2, 5, 10, 3), Color::Second}});
  EXPECT_EQ(r.hardOverlays, 0);
}

TEST(Decompose, T3a_SameColorSmallOverlay) {
  const OverlayReport r = measure({{hw(1, 0, 5, 2), Color::Core},
                                   {hw(2, 5, 10, 3), Color::Core}});
  // Diagonal merge exposes at most a unit per pattern; never hard.
  EXPECT_EQ(r.hardOverlays, 0);
  EXPECT_LE(r.sideOverlayNm, 2 * kRules.wLine);
}

// --- Cut conflicts -----------------------------------------------------------

TEST(Decompose, CutConflictWhenBothSidesCutDefined) {
  // A second wire without assists between two foreign merges: emulate by
  // disabling assist insertion so both sides are cut-defined.
  DecomposeOptions opts;
  opts.insertAssists = false;
  const OverlayReport r = measure({{hw(1, 0, 10, 2), Color::Second}}, opts);
  // Both long sides cut-defined 20 nm apart < d_cut: Fig. 15(b) conflict.
  EXPECT_GT(r.cutSpaceConflicts, 0);
}

TEST(Decompose, NoMergeOptionExposesCoreNeighbors) {
  // With merging disabled, sub-d_core core shapes stay separate; the raw
  // masks then violate core MRC, which manifests as spacer overlapping the
  // neighbor (this configuration is what the merge technique exists for).
  DecomposeOptions merged;
  const OverlayReport rm = measure({{hw(1, 0, 5, 2), Color::Core},
                                    {hw(2, 5, 10, 2), Color::Core}},
                                   merged);
  EXPECT_EQ(rm.cutConflicts(), 0);
}

// --- Spacer integrity --------------------------------------------------------

TEST(Decompose, SpacerNeverEatsMetalOnGridLayouts) {
  const OverlayReport r = measure({
      {hw(1, 0, 10, 2), Color::Core},
      {hw(2, 0, 10, 3), Color::Second},
      {hw(3, 0, 10, 4), Color::Core},
      {vw(4, 12, 0, 8), Color::Second},
  });
  EXPECT_EQ(r.spacerOverTargetPx, 0);
}

// --- Merge technique / odd cycle (Fig. 2, Fig. 21) --------------------------

TEST(Decompose, OddCycleDecomposedByMergeAndCut) {
  // Three mutually-adjacent parallel wires cannot be 2-colored under trim
  // rules; the cut process solves it by giving two of them the same color
  // and cutting the merged pair. Build wires on rows 2,3,4 (each pair @1)
  // with single-track facing spans so nothing is hard.
  const OverlayReport r = measure({
      {hw(1, 0, 5, 2), Color::Core},
      {hw(2, 4, 9, 3), Color::Second},
      {hw(3, 0, 5, 4), Color::Core},
  });
  EXPECT_EQ(r.hardOverlays, 0);
  EXPECT_EQ(r.cutConflicts(), 0);
}

TEST(Decompose, EmptyInput) {
  const OverlayReport r = measure({});
  EXPECT_EQ(r.sideOverlayNm, 0);
  EXPECT_EQ(r.cutConflicts(), 0);
}

}  // namespace
}  // namespace sadp
