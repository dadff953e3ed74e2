// Tests for the overlay-aware A* engine.
#include "route/astar.hpp"

#include <gtest/gtest.h>

namespace sadp {
namespace {

RoutingGrid makeGrid(Track w = 20, Track h = 20, int layers = 3) {
  return RoutingGrid(w, h, layers, DesignRules{});
}

TEST(AStar, StraightLinePreferredDirection) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  const GridNode s{2, 5, 0}, t{12, 5, 0};
  auto res = eng.route(1, {{s}}, {{t}}, AStarParams{});
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->path.front(), s);
  EXPECT_EQ(res->path.back(), t);
  EXPECT_EQ(res->path.size(), 11u);
  EXPECT_EQ(res->vias, 0);
  EXPECT_DOUBLE_EQ(res->cost, 10.0);
}

TEST(AStar, BendUsesLayersOrJog) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  auto res = eng.route(1, {{GridNode{2, 2, 0}}}, {{GridNode{10, 10, 0}}},
                       AStarParams{});
  ASSERT_TRUE(res.has_value());
  // Path must be connected: consecutive nodes differ by one step.
  for (std::size_t i = 1; i < res->path.size(); ++i) {
    const GridNode& a = res->path[i - 1];
    const GridNode& b = res->path[i];
    const int d = std::abs(a.x - b.x) + std::abs(a.y - b.y) +
                  std::abs(a.layer - b.layer);
    EXPECT_EQ(d, 1);
  }
}

TEST(AStar, AvoidsOccupiedNodes) {
  RoutingGrid g = makeGrid();
  // Wall across the middle on all layers except a door at (10, 18).
  for (int l = 0; l < 3; ++l) {
    for (Track y = 0; y < 20; ++y) {
      if (y == 18) continue;
      g.occupy({10, y, std::int16_t(l)}, 99);
    }
  }
  AStarEngine eng(g);
  auto res = eng.route(1, {{GridNode{2, 2, 0}}}, {{GridNode{18, 2, 0}}},
                       AStarParams{});
  ASSERT_TRUE(res.has_value());
  bool throughDoor = false;
  for (const GridNode& n : res->path) {
    EXPECT_NE(g.owner(n), 99);
    if (n.x == 10 && n.y == 18) throughDoor = true;
  }
  EXPECT_TRUE(throughDoor);
}

TEST(AStar, OwnNodesArePassable) {
  RoutingGrid g = makeGrid();
  g.occupy({5, 5, 0}, 1);  // the net's own pin reservation
  AStarEngine eng(g);
  auto res =
      eng.route(1, {{GridNode{5, 5, 0}}}, {{GridNode{8, 5, 0}}}, AStarParams{});
  ASSERT_TRUE(res.has_value());
}

TEST(AStar, UnreachableReturnsNullopt) {
  RoutingGrid g = makeGrid(10, 10, 1);
  for (Track y = 0; y < 10; ++y) g.block({5, y, 0});
  AStarEngine eng(g);
  auto res =
      eng.route(1, {{GridNode{2, 2, 0}}}, {{GridNode{8, 8, 0}}}, AStarParams{});
  EXPECT_FALSE(res.has_value());
}

TEST(AStar, MultiCandidatePinsPickClosest) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  std::vector<GridNode> sources{{2, 2, 0}, {2, 10, 0}};
  std::vector<GridNode> targets{{18, 10, 0}, {18, 18, 0}};
  auto res = eng.route(1, sources, targets, AStarParams{});
  ASSERT_TRUE(res.has_value());
  // (2,10) -> (18,10) is the straight preferred-direction option.
  EXPECT_EQ(res->path.front(), (GridNode{2, 10, 0}));
  EXPECT_EQ(res->path.back(), (GridNode{18, 10, 0}));
}

TEST(AStar, PenaltyFieldDiverts) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  PenaltyField fld(g);
  // Make the straight row expensive.
  for (Track x = 5; x < 15; ++x) fld.add({x, 5, 0}, 100.0f);
  auto res = eng.route(1, {{GridNode{2, 5, 0}}}, {{GridNode{18, 5, 0}}},
                       AStarParams{}, &fld);
  ASSERT_TRUE(res.has_value());
  for (const GridNode& n : res->path) {
    EXPECT_FALSE(n.layer == 0 && n.y == 5 && n.x >= 5 && n.x < 15)
        << "path should avoid the penalized row";
  }
}

/// Every cell reads exactly 0 and the summary state is back to empty.
void expectCleared(const RoutingGrid& g, const PenaltyField& fld) {
  int nonzero = 0;
  for (std::int16_t l = 0; l < g.layers(); ++l) {
    for (Track y = 0; y < g.height(); ++y) {
      for (Track x = 0; x < g.width(); ++x) {
        nonzero += fld.at({x, y, l}) != 0.0f;
      }
    }
  }
  EXPECT_EQ(nonzero, 0);
  EXPECT_FALSE(fld.hasNegative());
  EXPECT_EQ(fld.maxSeen(), 0.0f);
}

TEST(PenaltyField, SparseClearResetsTouchedCells) {
  RoutingGrid g = makeGrid();
  PenaltyField fld(g);
  for (int round = 0; round < 2; ++round) {  // the field is reusable
    for (Track x = 3; x < 9; ++x) fld.add({x, 7, 1}, 4.0f);
    fld.add({0, 0, 0}, -2.5f);
    fld.add({19, 19, 2}, 1.0f);
    fld.add({25, 3, 0}, 9.0f);  // out of bounds: ignored
    ASSERT_TRUE(fld.hasNegative());
    ASSERT_EQ(fld.maxSeen(), 4.0f);
    fld.clear();
    expectCleared(g, fld);
  }
}

TEST(PenaltyField, DenseClearFallsBackToFullFill) {
  RoutingGrid g = makeGrid();
  PenaltyField fld(g);
  // Touch every cell (well past 1/8 of the grid), including negatives.
  for (std::int16_t l = 0; l < g.layers(); ++l) {
    for (Track y = 0; y < g.height(); ++y) {
      for (Track x = 0; x < g.width(); ++x) {
        fld.add({x, y, l}, (x + y) % 3 == 0 ? -1.0f : float(x + 1));
      }
    }
  }
  ASSERT_TRUE(fld.hasNegative());
  fld.clear();
  expectCleared(g, fld);
}

TEST(PenaltyField, CellBackAtZeroThenReAddedIsCleared) {
  RoutingGrid g = makeGrid();
  PenaltyField fld(g);
  const GridNode n{4, 4, 0};
  fld.add(n, 2.0f);
  fld.add(n, -2.0f);
  ASSERT_EQ(fld.at(n), 0.0f);
  fld.add(n, 3.0f);
  fld.clear();
  expectCleared(g, fld);
}

TEST(AStar, T2bFieldIsDirectional) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  T2bField t2b(g);
  // Penalize vertical entry into row 5; horizontal entry stays free.
  for (Track x = 0; x < 20; ++x) t2b.verticalEntry.add({x, 5, 0}, 100.0f);
  AStarParams p;
  // Horizontal route across row 5 is unaffected.
  auto horiz = eng.route(1, {{GridNode{2, 5, 0}}}, {{GridNode{18, 5, 0}}}, p,
                         nullptr, &t2b);
  ASSERT_TRUE(horiz.has_value());
  EXPECT_DOUBLE_EQ(horiz->cost, 16.0);
  // A vertical route on layer 0 crossing row 5 must pay or dodge via layers.
  auto vert = eng.route(2, {{GridNode{10, 2, 0}}}, {{GridNode{10, 8, 0}}}, p,
                        nullptr, &t2b);
  ASSERT_TRUE(vert.has_value());
  bool enteredRow5OnL0Vertically = false;
  for (std::size_t i = 1; i < vert->path.size(); ++i) {
    if (vert->path[i].layer == 0 && vert->path[i].y == 5 &&
        vert->path[i - 1].y != 5) {
      enteredRow5OnL0Vertically = true;
    }
  }
  EXPECT_FALSE(enteredRow5OnL0Vertically);
}

// A repair reroute stamps 25 x kRipUpPenalty = 150 per cell over the
// conflict box; when the net's target pin sits inside it, every path pays
// 150 on its last step. Without the entry-penalty floor the Manhattan
// heuristic cannot see that cost and the search floods the whole
// 64 x 64 x 3 grid before popping the target (12 268 expansions); with it
// the search stays near the straight line (189).
TEST(AStar, TargetInAvoidBoxDoesNotFlood) {
  RoutingGrid g = makeGrid(64, 64, 3);
  PenaltyField fld(g);
  const GridNode s{8, 32, 0}, t{56, 32, 0};
  for (Track y = t.y - 2; y <= t.y + 2; ++y) {
    for (Track x = t.x - 2; x <= t.x + 2; ++x) fld.add({x, y, 0}, 150.0f);
  }
  AStarEngine eng(g);
  auto res = eng.route(1, {{s}}, {{t}}, AStarParams{}, &fld);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->path.front(), s);
  EXPECT_EQ(res->path.back(), t);
  // 45 tracks to the box edge, a via up, three wrong-way steps on layer 1
  // around the box cells, and a via down into t paying its 150.
  EXPECT_DOUBLE_EQ(res->cost, 45.0 + 1.0 + 3 * 1.5 + 1.0 + 150.0);
  EXPECT_LT(res->expansions, 400);
}

TEST(AStar, ExpansionCapAborts) {
  RoutingGrid g = makeGrid(30, 30, 1);
  AStarEngine eng(g);
  AStarParams p;
  p.maxExpansions = 5;
  auto res = eng.route(1, {{GridNode{0, 0, 0}}}, {{GridNode{29, 29, 0}}}, p);
  EXPECT_FALSE(res.has_value());
}

TEST(AStar, ReusableEngineManyQueries) {
  RoutingGrid g = makeGrid();
  AStarEngine eng(g);
  for (int i = 0; i < 200; ++i) {
    auto res = eng.route(1, {{GridNode{Track(i % 18), 2, 0}}},
                         {{GridNode{Track((i * 7) % 18), 15, 0}}},
                         AStarParams{});
    ASSERT_TRUE(res.has_value()) << i;
  }
}

TEST(AStar, ViaCostCounted) {
  RoutingGrid g = makeGrid();
  // Block the whole of layer 0 row except endpoints to force a layer hop.
  for (Track x = 5; x < 15; ++x) {
    for (Track y = 0; y < 20; ++y) g.block({x, y, 0});
  }
  AStarEngine eng(g);
  auto res = eng.route(1, {{GridNode{2, 5, 0}}}, {{GridNode{18, 5, 0}}},
                       AStarParams{});
  ASSERT_TRUE(res.has_value());
  EXPECT_GE(res->vias, 2);
}

}  // namespace
}  // namespace sadp
