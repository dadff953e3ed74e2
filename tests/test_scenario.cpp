// Tests for the potential-overlay-scenario taxonomy (Theorems 1-3).
#include "ocg/scenario.hpp"

#include <gtest/gtest.h>

namespace sadp {
namespace {

// Convenience builders: horizontal wire on row `y` spanning [x0, x1);
// vertical wire on column `x` spanning [y0, y1).
Fragment hw(NetId net, Track x0, Track x1, Track y) {
  return Fragment{x0, y, x1, y + 1, net};
}
Fragment vw(NetId net, Track x, Track y0, Track y1) {
  return Fragment{x, y0, x + 1, y1, net};
}

TEST(TrackGap, Basics) {
  EXPECT_EQ(trackGap(0, 5, 5, 8), 1);   // adjacent tracks
  EXPECT_EQ(trackGap(0, 5, 6, 8), 2);
  EXPECT_EQ(trackGap(6, 8, 0, 5), 2);   // symmetric
  EXPECT_EQ(trackGap(0, 5, 3, 8), 0);   // overlapping
  EXPECT_EQ(trackGap(0, 5, 4, 8), 0);
}

TEST(Independence, Theorem1Boundaries) {
  // One axis zero: dependent up to gap 2, independent from 3.
  EXPECT_FALSE(independentGaps(0, 1));
  EXPECT_FALSE(independentGaps(0, 2));
  EXPECT_TRUE(independentGaps(0, 3));
  EXPECT_FALSE(independentGaps(2, 0));
  EXPECT_TRUE(independentGaps(3, 0));
  // Both positive: dependent exactly for (1,1), (1,2), (2,1).
  EXPECT_FALSE(independentGaps(1, 1));
  EXPECT_FALSE(independentGaps(1, 2));
  EXPECT_FALSE(independentGaps(2, 1));
  EXPECT_TRUE(independentGaps(2, 2));
  // (1,3): Euclidean distance sqrt(20^2 + 100^2) = 102 nm > d_indep.
  EXPECT_TRUE(independentGaps(1, 3));
  EXPECT_TRUE(independentGaps(3, 1));
}

TEST(Independence, OneByThreeDiagonalIsIndependent) {
  const Fragment a = hw(1, 0, 10, 0);
  const Fragment c = hw(2, 10, 20, 3);  // gaps (1, 3)
  EXPECT_TRUE(classify(a, c).independent());
}

TEST(Classify, SameNetIsIndependent) {
  const Fragment a = hw(1, 0, 10, 0);
  const Fragment b = hw(1, 0, 10, 1);
  EXPECT_TRUE(classify(a, b).independent());
}

TEST(Classify, Type1a_SideToSideAdjacent) {
  const Fragment a = hw(1, 0, 10, 0);
  const Fragment b = hw(2, 0, 10, 1);
  const Classification c = classify(a, b);
  EXPECT_EQ(c.type, ScenarioType::T1a);
  EXPECT_TRUE(c.hard());
  // CC and SS forbidden; CS and SC free.
  EXPECT_GE(c.overlay[assignmentIndex(Color::Core, Color::Core)], kHardCost);
  EXPECT_GE(c.overlay[assignmentIndex(Color::Second, Color::Second)],
            kHardCost);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Second)], 0);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Second, Color::Core)], 0);
}

TEST(Classify, Type1a_SingleTrackFacingSpan) {
  // Facing span of one track: CC merges at the corner (two w_line-long
  // nonhard sections); SS stays forbidden (no room for assists), but that
  // single-assignment ban is not a parity constraint.
  const Fragment a = hw(1, 0, 5, 0);
  const Fragment b = hw(2, 4, 10, 1);  // x overlap = 1 track
  const Classification c = classify(a, b);
  EXPECT_EQ(c.type, ScenarioType::T1a);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Core)], 2);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Second)], 0);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Second, Color::Core)], 0);
  EXPECT_GE(c.overlay[assignmentIndex(Color::Second, Color::Second)],
            kHardCost);
}

TEST(Classify, Type1a_VerticalPair) {
  const Fragment a = vw(1, 0, 0, 10);
  const Fragment b = vw(2, 1, 0, 10);
  EXPECT_EQ(classify(a, b).type, ScenarioType::T1a);
}

TEST(Classify, Type1b_TipToSideAdjacent) {
  // Vertical wire B whose top tip stops one track below horizontal wire A.
  const Fragment a = hw(1, 0, 10, 5);
  const Fragment tip1 = vw(2, 4, 0, 4);  // gap 2: [5,6) vs [0,4) -> T2b
  EXPECT_EQ(classify(a, tip1).type, ScenarioType::T2b);
  const Fragment tip2 = vw(2, 4, 0, 5);  // gap 1: [5,6) vs [0,5) -> 1
  const Classification c = classify(a, tip2);
  EXPECT_EQ(c.type, ScenarioType::T1b);
  EXPECT_TRUE(c.hard());
  // Same colors fine, different forbidden.
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Core)], 0);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Second, Color::Second)], 0);
  EXPECT_GE(c.overlay[assignmentIndex(Color::Core, Color::Second)], kHardCost);
  EXPECT_GE(c.overlay[assignmentIndex(Color::Second, Color::Core)], kHardCost);
}

TEST(Classify, Type2a_SideToSideAtTwo) {
  const Fragment a = hw(1, 0, 10, 0);
  const Fragment b = hw(2, 0, 10, 2);
  const Classification c = classify(a, b);
  EXPECT_EQ(c.type, ScenarioType::T2a);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Core)], 0);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Second, Color::Second)], 0);
  // Mixed colors at span >= 2 produce a contiguous merge-cut section
  // longer than w_line: escalated to a hard same-color constraint.
  EXPECT_TRUE(c.hard());
  EXPECT_GE(c.overlay[assignmentIndex(Color::Core, Color::Second)],
            kHardCost);
  EXPECT_GE(c.overlay[assignmentIndex(Color::Second, Color::Core)],
            kHardCost);
}

TEST(Classify, Type2a_SingleTrackSpanStaysNonhard) {
  const Fragment a = hw(1, 0, 5, 0);
  const Fragment b = hw(2, 4, 10, 2);  // x overlap = 1 track
  const Classification c = classify(a, b);
  EXPECT_EQ(c.type, ScenarioType::T2a);
  EXPECT_FALSE(c.hard());
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Second)], 2);
  EXPECT_TRUE(c.cutRisk[assignmentIndex(Color::Core, Color::Second)]);
}

TEST(Classify, Type2b_TipToSideAtTwo_RolePermutation) {
  // A's side faces B's tip: canonical order.
  const Fragment a = hw(1, 0, 10, 5);
  const Fragment b = vw(2, 4, 0, 4);
  const Classification c = classify(a, b);
  EXPECT_EQ(c.type, ScenarioType::T2b);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Core)], 1);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Second, Color::Second)], 1);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Second)], 2);
  // CS (side pattern core, tip pattern second) carries the cut risk.
  EXPECT_TRUE(c.cutRisk[assignmentIndex(Color::Core, Color::Second)]);
  EXPECT_FALSE(c.cutRisk[assignmentIndex(Color::Second, Color::Core)]);

  // Swapped argument order must permute CS/SC consistently.
  const Classification cSwap = classify(b, a);
  EXPECT_EQ(cSwap.type, ScenarioType::T2b);
  EXPECT_EQ(cSwap.overlay[assignmentIndex(Color::Second, Color::Core)], 2);
  EXPECT_TRUE(cSwap.cutRisk[assignmentIndex(Color::Second, Color::Core)]);
  EXPECT_FALSE(cSwap.cutRisk[assignmentIndex(Color::Core, Color::Second)]);
}

TEST(Classify, Type2c2d_TipToTipTrivial) {
  const Fragment a = hw(1, 0, 5, 0);
  // Tracks ..4 and 5..: nearest-track delta 1 => metal gap = 20 nm (T2c).
  const Classification c1 = classify(a, hw(2, 5, 10, 0));
  EXPECT_EQ(c1.type, ScenarioType::T2c);
  EXPECT_FALSE(c1.material());
  // Tracks ..4 and 6..: delta 2 => 60 nm gap (T2d).
  const Classification c2 = classify(a, hw(2, 6, 10, 0));
  EXPECT_EQ(c2.type, ScenarioType::T2d);
  EXPECT_FALSE(c2.material());
  // Delta 3 is independent.
  EXPECT_TRUE(classify(a, hw(2, 7, 10, 0)).independent());
}

TEST(Classify, Type3a_DiagonalParallel) {
  const Fragment a = hw(1, 0, 5, 0);
  const Fragment b = hw(2, 6, 10, 1);  // x gap 2? [0,5),[6,10) -> 2. Use 5.
  const Classification cWrong = classify(a, b);
  EXPECT_EQ(cWrong.type, ScenarioType::T3d);  // along 2, across 1
  const Classification c = classify(a, Fragment{5, 1, 10, 2, 2});
  EXPECT_EQ(c.type, ScenarioType::T3a);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Core)], 1);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Second)], 0);
}

TEST(Classify, Type3b_DiagonalOrthogonal) {
  const Fragment a = hw(1, 0, 5, 0);
  const Fragment b = vw(2, 5, 1, 6);  // x gap 1, y gap 1
  const Classification c = classify(a, b);
  EXPECT_EQ(c.type, ScenarioType::T3b);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Second, Color::Second)], 0);
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Core)], 1);
}

TEST(Classify, Type3c3e) {
  const Fragment a = hw(1, 0, 5, 0);
  // Parallel, along gap 1, across gap 2 -> T3c.
  const Classification c3c = classify(a, Fragment{5, 2, 10, 3, 2});
  EXPECT_EQ(c3c.type, ScenarioType::T3c);
  // Orthogonal, gaps (1,2) -> T3e (never material).
  const Classification c3e = classify(a, vw(2, 5, 2, 8));
  EXPECT_EQ(c3e.type, ScenarioType::T3e);
  EXPECT_FALSE(c3e.material());
}

TEST(Classify, Type3cRolePermutation) {
  const Fragment a = hw(1, 0, 5, 0);
  const Fragment b{5, 2, 10, 3, 2};
  const Classification ab = classify(a, b);
  const Classification ba = classify(b, a);
  EXPECT_EQ(ab.type, ba.type);
  EXPECT_EQ(ab.overlay[assignmentIndex(Color::Core, Color::Second)],
            ba.overlay[assignmentIndex(Color::Second, Color::Core)]);
  EXPECT_EQ(ab.overlay[assignmentIndex(Color::Second, Color::Core)],
            ba.overlay[assignmentIndex(Color::Core, Color::Second)]);
}

TEST(Classify, StubPairsTipToTip) {
  const Fragment a{0, 0, 1, 1, 1};
  const Fragment b{0, 2, 1, 3, 2};  // stacked, gap 2
  const Classification c = classify(a, b);
  EXPECT_EQ(c.type, ScenarioType::T2d);
  EXPECT_FALSE(c.material());
}

TEST(Classify, StubAdoptsWireOrientation) {
  const Fragment wire = hw(1, 0, 10, 0);
  const Fragment stub{4, 1, 5, 2, 2};  // directly above: side-by-side @1
  const Classification c = classify(wire, stub);
  EXPECT_EQ(c.type, ScenarioType::T1a);
  // Span-1 rule: only SS is forbidden.
  EXPECT_EQ(c.overlay[assignmentIndex(Color::Core, Color::Core)], 2);
  EXPECT_GE(c.overlay[assignmentIndex(Color::Second, Color::Second)],
            kHardCost);
}

// Completeness sweep (Theorem 2): every dependent gap tuple and direction
// combination must classify to a scenario; every independent one must not.
TEST(Classify, CompletenessSweep) {
  for (Track gx = 0; gx <= 4; ++gx) {
    for (Track gy = 0; gy <= 4; ++gy) {
      if (gx == 0 && gy == 0) continue;
      for (int dir = 0; dir < 2; ++dir) {
        // Build a pair of 4-track wires with exactly the target gaps.
        const Fragment a = hw(1, 0, 4, 0);
        Fragment b;
        if (dir == 0) {
          b = hw(2, 0, 4, 0);
        } else {
          b = vw(2, 0, 0, 4);
        }
        // Shift b to obtain the desired gaps.
        const Track dx = (gx == 0) ? 0 : Track(4 + gx - 1);
        const Track dy = (gy == 0) ? 0 : Track(1 + gy - 1);
        b.xlo += dx;
        b.xhi += dx;
        b.ylo += dy;
        b.yhi += dy;
        const Track realGx = trackGap(a.xlo, a.xhi, b.xlo, b.xhi);
        const Track realGy = trackGap(a.ylo, a.yhi, b.ylo, b.yhi);
        if (realGx != gx || realGy != gy) continue;  // shape couldn't fit
        const Classification c = classify(a, b);
        if (independentGaps(gx, gy)) {
          EXPECT_TRUE(c.independent())
              << "(" << gx << "," << gy << "," << dir << ")";
        } else {
          EXPECT_FALSE(c.independent())
              << "(" << gx << "," << gy << "," << dir << ")";
        }
      }
    }
  }
}

// Table II regeneration sanity: the trivial scenarios and hard scenarios
// are exactly the ones the paper states.
TEST(ScenarioRule, TableIIStructure) {
  using S = ScenarioType;
  EXPECT_TRUE(scenarioRule(S::T2c).trivial());
  EXPECT_TRUE(scenarioRule(S::T2d).trivial());
  EXPECT_TRUE(scenarioRule(S::T3e).trivial());
  EXPECT_TRUE(scenarioRule(S::T1a).isHard());
  EXPECT_TRUE(scenarioRule(S::T1b).isHard());
  for (S s : {S::T2a, S::T2b, S::T3a, S::T3b, S::T3c, S::T3d}) {
    EXPECT_FALSE(scenarioRule(s).isHard()) << toString(s);
  }
  // 2-b is the only scenario with unavoidable side overlay.
  EXPECT_EQ(scenarioRule(S::T2b).minOverlay(), 1);
  for (S s : {S::T1a, S::T1b, S::T2a, S::T3a, S::T3b, S::T3c, S::T3d}) {
    EXPECT_EQ(scenarioRule(s).minOverlay(), 0) << toString(s);
  }
}

}  // namespace
}  // namespace sadp
