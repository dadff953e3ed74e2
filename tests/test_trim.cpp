// Tests for the trim-process decomposer.
#include "sadp/trim.hpp"

#include <gtest/gtest.h>

namespace sadp {
namespace {

const DesignRules kRules;

Fragment hw(NetId net, Track x0, Track x1, Track y) {
  return Fragment{x0, y, x1, y + 1, net};
}

TEST(Trim, CorePatternIsClean) {
  const std::vector<ColoredFragment> frags{{hw(1, 0, 8, 2), Color::Core}};
  const TrimReport r = decomposeTrimLayer(frags, kRules).report;
  EXPECT_EQ(r.sideOverlayNm, 0);
  EXPECT_EQ(r.conflicts(), 0);
}

TEST(Trim, IsolatedSecondPatternFullyTrimDefined) {
  // Without assist cores every boundary of a trim pattern is mask-defined.
  const std::vector<ColoredFragment> frags{{hw(1, 0, 8, 2), Color::Second}};
  const auto d = decomposeTrimLayer(frags, kRules);
  // Both long sides exposed over the full 8-track span: 2 * (8*40 - 20).
  EXPECT_EQ(d.report.sideOverlayNm, 2 * (8 * 40 - 20));
  EXPECT_EQ(d.report.hardOverlays, 2);
  EXPECT_EQ(d.report.tipOverlays, 2);
}

TEST(Trim, SpacerProtectsFacingSide) {
  // Second pattern one track from a core: the facing side is self-aligned.
  const std::vector<ColoredFragment> frags{{hw(1, 0, 8, 2), Color::Core},
                                           {hw(2, 0, 8, 3), Color::Second}};
  const auto d = decomposeTrimLayer(frags, kRules);
  // Only the far side (and tips) of the second pattern is exposed.
  EXPECT_EQ(d.report.sideOverlayNm, 8 * 40 - 20);
  EXPECT_EQ(d.report.hardOverlays, 1);
}

TEST(Trim, LineEndConflictDetected) {
  // Two collinear trim openings tip-to-tip at one track: the gap between
  // the openings is 20 nm < d_cut -- the classic parallel line-end trim
  // conflict.
  const std::vector<ColoredFragment> frags{{hw(1, 0, 4, 2), Color::Second},
                                           {hw(2, 4, 8, 2), Color::Second}};
  const auto d = decomposeTrimLayer(frags, kRules);
  EXPECT_EQ(d.report.trimSpaceConflicts, 1);
}

TEST(Trim, UnmergeableCoresConflict) {
  // Adjacent-track same-color cores: the cut process would merge them;
  // the trim process cannot -> core-mask spacing conflict.
  const std::vector<ColoredFragment> frags{{hw(1, 0, 6, 2), Color::Core},
                                           {hw(2, 0, 6, 3), Color::Core}};
  const auto d = decomposeTrimLayer(frags, kRules);
  EXPECT_EQ(d.report.coreSpaceConflicts, 1);
}

TEST(Trim, OppositeMasksNeverConflict) {
  const std::vector<ColoredFragment> frags{{hw(1, 0, 6, 2), Color::Core},
                                           {hw(2, 0, 6, 3), Color::Second}};
  const auto d = decomposeTrimLayer(frags, kRules);
  EXPECT_EQ(d.report.conflicts(), 0);
}

TEST(Trim, SameNetShapesExempt) {
  const std::vector<ColoredFragment> frags{
      {hw(1, 0, 4, 2), Color::Core}, {Fragment{3, 3, 4, 6, 1}, Color::Core}};
  const auto d = decomposeTrimLayer(frags, kRules);
  EXPECT_EQ(d.report.coreSpaceConflicts, 0);
}

TEST(Trim, MaskPartitionHolds) {
  const std::vector<ColoredFragment> frags{{hw(1, 0, 6, 2), Color::Core},
                                           {hw(2, 0, 6, 4), Color::Second}};
  const auto d = decomposeTrimLayer(frags, kRules);
  // Spacer and metal are disjoint; trim openings equal second metal.
  for (int y = 0; y < d.target.height(); ++y) {
    for (int x = 0; x < d.target.width(); ++x) {
      ASSERT_FALSE(d.spacer.get(x, y) && d.target.get(x, y));
      if (d.trimMask.get(x, y)) {
        ASSERT_TRUE(d.target.get(x, y));
      }
    }
  }
}

}  // namespace
}  // namespace sadp
