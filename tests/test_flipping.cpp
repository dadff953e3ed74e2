// Tests for the color-flipping engine: super-vertex reduction, maximum
// spanning tree + tree DP (Theorem 4), and brute-force optimality checks.
#include "patterning/flipping.hpp"

#include <gtest/gtest.h>

#include <random>

#include "run/run_context.hpp"
#include "trace/metrics.hpp"

namespace sadp {
namespace {

Classification edgeCosts(int cc, int cs, int sc, int ss,
                         ScenarioType t = ScenarioType::T3a) {
  Classification c;
  c.type = t;
  c.overlay = {cc, cs, sc, ss};
  return c;
}

Classification hardDiff() {
  return edgeCosts(kHardCost, 0, 0, kHardCost, ScenarioType::T1a);
}
Classification hardSame() {
  return edgeCosts(0, kHardCost, kHardCost, 0, ScenarioType::T1b);
}

/// Exhaustive minimum total cost over all 2^n vertex colorings.
std::int64_t bruteForceOptimum(const OverlayConstraintGraph& g) {
  const std::size_t n = g.vertexCount();
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::int64_t total = 0;
    for (const OcgEdge& e : g.edges()) {
      if (!e.alive) continue;
      const Color cu = (mask >> e.u) & 1 ? Color::Second : Color::Core;
      const Color cv = (mask >> e.v) & 1 ? Color::Second : Color::Core;
      const int i = assignmentIndex(cu, cv);
      std::int64_t c = e.cls.overlay[i];
      if (e.cls.cutRisk[i]) c += OverlayConstraintGraph::kCutRiskPenalty;
      total += c;
    }
    best = std::min(best, total);
  }
  return best;
}

/// Total true cost of the current coloring of g (all vertices colored).
std::int64_t currentCost(const OverlayConstraintGraph& g) {
  std::int64_t total = 0;
  for (const OcgEdge& e : g.edges()) {
    if (!e.alive) continue;
    const Color cu = g.colorOf(g.netOf(e.u));
    const Color cv = g.colorOf(g.netOf(e.v));
    const int i = assignmentIndex(cu, cv);
    std::int64_t c = e.cls.overlay[i];
    if (e.cls.cutRisk[i]) c += OverlayConstraintGraph::kCutRiskPenalty;
    total += c;
  }
  return total;
}

TEST(Reduce, HardClassesCollapse) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardSame());
  g.addScenario(2, 3, hardDiff());
  g.addScenario(3, 4, edgeCosts(1, 0, 0, 1));
  const ReducedGraph rg = reduceGraph(g);
  // {1,2,3} form one hard class; 4 is alone.
  EXPECT_EQ(rg.classCount(), 2u);
  ASSERT_EQ(rg.edges.size(), 1u);
  EXPECT_FALSE(rg.edges[0].hard);
}

TEST(Reduce, ParityFoldsCostVector) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, hardDiff());  // 2 = flipped(1)
  // Edge 2-3 prefers same colors: cost (CC=0, CS=5, SC=5, SS=0).
  g.addScenario(2, 3, edgeCosts(0, 5, 5, 0, ScenarioType::T2a));
  const ReducedGraph rg = reduceGraph(g);
  ASSERT_EQ(rg.edges.size(), 1u);
  // In class space (class of {1,2} keyed by 1's parity): vertex-2 color is
  // the flip of the class color, so the folded cost must prefer the class
  // color DIFFERENT from 3's color.
  const auto& cost = rg.edges[0].cost;
  // Whichever orientation, one diagonal must be {5,5} and the other {0,0}.
  EXPECT_EQ(cost[0], 5);  // class colors equal -> vertex colors differ
  EXPECT_EQ(cost[3], 5);
  EXPECT_EQ(cost[1], 0);
  EXPECT_EQ(cost[2], 0);
}

TEST(Flip, SimpleChainReachesOptimum) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, edgeCosts(3, 0, 0, 3));
  g.addScenario(2, 3, edgeCosts(3, 0, 0, 3));
  g.setColor(1, Color::Core);
  g.setColor(2, Color::Core);
  g.setColor(3, Color::Core);
  EXPECT_EQ(currentCost(g), 6);
  const FlipStats s = colorFlip(g);
  EXPECT_EQ(s.costAfter, bruteForceOptimum(g));
  EXPECT_EQ(currentCost(g), 0);  // alternate coloring
}

TEST(Flip, TreeOptimalityRandomized) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> cost(0, 6);
  for (int iter = 0; iter < 60; ++iter) {
    OverlayConstraintGraph g;
    const int n = 8;
    // Random tree over vertices 0..n-1 (net ids offset by 10).
    for (int v = 1; v < n; ++v) {
      std::uniform_int_distribution<int> parent(0, v - 1);
      g.addScenario(10 + parent(rng), 10 + v,
                    edgeCosts(cost(rng), cost(rng), cost(rng), cost(rng)));
    }
    for (int v = 0; v < n; ++v) {
      g.setColor(10 + v, (iter & 1) ? Color::Core : Color::Second);
    }
    colorFlip(g);
    EXPECT_EQ(currentCost(g), bruteForceOptimum(g)) << "iter " << iter;
  }
}

TEST(Flip, NeverWorsensOnCyclicGraphs) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> cost(0, 6);
  std::uniform_int_distribution<int> vtx(0, 9);
  for (int iter = 0; iter < 60; ++iter) {
    OverlayConstraintGraph g;
    for (int e = 0; e < 14; ++e) {
      int a = vtx(rng), b = vtx(rng);
      if (a == b) continue;
      g.addScenario(100 + a, 100 + b,
                    edgeCosts(cost(rng), cost(rng), cost(rng), cost(rng)));
    }
    for (int v = 0; v < 10; ++v) {
      if (g.findVertex(100 + v) >= 0) {
        g.setColor(100 + v, vtx(rng) % 2 ? Color::Core : Color::Second);
      }
    }
    const std::int64_t before = currentCost(g);
    colorFlip(g);
    const std::int64_t after = currentCost(g);
    EXPECT_LE(after, before) << "iter " << iter;
    // Cyclic graphs: DP is a heuristic; must still never violate hard
    // constraints (none here) and never worsen.
  }
}

TEST(Flip, HardConstraintsAlwaysRespected) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> cost(0, 6);
  for (int iter = 0; iter < 40; ++iter) {
    OverlayConstraintGraph g;
    // Chain of hard edges plus random nonhard chords.
    const int n = 7;
    for (int v = 1; v < n; ++v) {
      g.addScenario(v - 1, v, (v % 2) ? hardDiff() : hardSame());
    }
    std::uniform_int_distribution<int> vtx(0, n - 1);
    for (int e = 0; e < 6; ++e) {
      int a = vtx(rng), b = vtx(rng);
      if (a == b) continue;
      g.addScenario(a, b,
                    edgeCosts(cost(rng), cost(rng), cost(rng), cost(rng)));
    }
    g.setColor(0, Color::Core);
    colorFlip(g);
    // Verify every hard edge satisfied.
    for (const OcgEdge& e : g.edges()) {
      if (!e.alive || !e.cls.hard()) continue;
      const Color cu = g.colorOf(g.netOf(e.u));
      const Color cv = g.colorOf(g.netOf(e.v));
      EXPECT_LT(e.cls.overlay[assignmentIndex(cu, cv)], kHardCost)
          << "iter " << iter;
    }
  }
}

TEST(Flip, ColorsUncoloredVertices) {
  OverlayConstraintGraph g;
  g.addScenario(1, 2, edgeCosts(3, 0, 0, 3));
  colorFlip(g);
  EXPECT_NE(g.colorOf(1), Color::Unassigned);
  EXPECT_NE(g.colorOf(2), Color::Unassigned);
  EXPECT_EQ(currentCost(g), 0);
}

TEST(Flip, EmptyGraph) {
  OverlayConstraintGraph g;
  const FlipStats s = colorFlip(g);
  EXPECT_EQ(s.components, 0);
  EXPECT_EQ(s.costBefore, 0);
}

TEST(Flip, MstPrefersSignificantEdges) {
  // Triangle where one edge is far more significant; the DP must satisfy
  // the two heavy edges even at the cost of the light one.
  OverlayConstraintGraph g;
  g.addScenario(1, 2, edgeCosts(9, 0, 0, 9));
  g.addScenario(2, 3, edgeCosts(9, 0, 0, 9));
  g.addScenario(3, 1, edgeCosts(1, 0, 0, 1));  // conflicts with the others
  colorFlip(g);
  EXPECT_EQ(currentCost(g), 1);  // brute-force optimum is 1
  EXPECT_EQ(currentCost(g), bruteForceOptimum(g));
}

// A flip leaves every component at a fixed point: re-solving all of them
// changes no color and improves nothing. Local flipping skips untouched
// components on exactly this ground (DESIGN.md §5.4/5.5).
TEST(Flip, SecondFlipIsNoOp) {
  std::mt19937 rng(23);
  std::uniform_int_distribution<int> cost(0, 6);
  std::uniform_int_distribution<int> vtx(0, 11);
  for (int iter = 0; iter < 60; ++iter) {
    OverlayConstraintGraph g;
    for (int e = 0; e < 16; ++e) {
      const int a = vtx(rng), b = vtx(rng);
      g.addScenario(a, b, e % 5 == 0 ? hardDiff()
                                     : edgeCosts(cost(rng), cost(rng),
                                                 cost(rng), cost(rng)));
    }
    g.setPrior(vtx(rng), cost(rng), cost(rng));
    for (int v = 0; v < 12; ++v) {
      if (g.findVertex(v) >= 0 && vtx(rng) % 3 == 0) {
        g.setColor(v, vtx(rng) % 2 ? Color::Core : Color::Second);
      }
    }
    colorFlip(g);
    std::vector<Color> first;
    for (NetId net : g.vertexNets()) first.push_back(g.colorOf(net));
    // Re-setting each color marks every vertex dirty without changing it.
    for (NetId net : g.vertexNets()) g.setColor(net, g.colorOf(net));
    const FlipStats s = colorFlip(g);
    EXPECT_EQ(s.componentsImproved, 0) << "iter " << iter;
    for (std::size_t v = 0; v < first.size(); ++v) {
      EXPECT_EQ(g.colorOf(g.vertexNets()[v]), first[v])
          << "iter " << iter << " vertex " << v;
    }
  }
}

// A flip reduces only the components touched since the previous one.
TEST(Flip, ReducesOnlyTouchedComponents) {
  RunContext ctx;
  RunContext::Scope scope(ctx);
  Counter& reduced = ctx.metrics().counter("flip.classes_reduced");
  OverlayConstraintGraph g;
  for (NetId base : {NetId(0), NetId(10)}) {  // two disjoint chains
    for (NetId v = 1; v < 4; ++v) {
      g.addScenario(base + v - 1, base + v, edgeCosts(3, 0, 0, 3));
    }
  }
  colorFlip(g);
  EXPECT_EQ(reduced.value(), 8);
  colorFlip(g);
  EXPECT_EQ(reduced.value(), 8);  // nothing changed: nothing reduced
  g.setColor(11, flippedColor(g.colorOf(11)));
  const FlipStats s = colorFlip(g);
  EXPECT_EQ(reduced.value(), 12);  // only the second chain
  EXPECT_EQ(s.components, 1);
  EXPECT_EQ(s.componentsImproved, 1);
  EXPECT_EQ(currentCost(g), 0);
}

}  // namespace
}  // namespace sadp
