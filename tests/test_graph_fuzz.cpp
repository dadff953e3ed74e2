// Differential fuzz for the constraint graph's rip-up (ctest label `fuzz`,
// DESIGN.md §5.5).
//
// removeNet re-replays only the removed net's hard class. The oracle below
// is the from-scratch rebuild it replaced: kill the net's edges, reset the
// whole DSU, replay every alive hard edge in edge-index order, and re-root
// all vertex colors through a snapshot. Two graphs receive the same seeded
// stream of addScenario / removeNet / setColor / pseudoColor; one removes
// class-locally, the other through the oracle. After every operation both
// must agree on every vertex's hard class, parity, color and class
// members, on the exact hard-violation count, and on every return value.
// Because the two graphs then keep evolving independently, a rank that
// differs after a removal shows up as a root that differs later.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ocg/graph.hpp"
#include "patterning/backend.hpp"

namespace sadp {

/// Test-only friend of OverlayConstraintGraph (declared in graph.hpp).
struct OcgTestAccess {
  /// removeNet as it was before the class-local rebuild.
  static void removeNetFullRebuild(OverlayConstraintGraph& g, NetId net) {
    auto it = g.idx_.find(net);
    if (it == g.idx_.end()) return;
    const std::uint32_t v = it->second;
    bool removedHard = false;
    for (std::uint32_t ei : g.adj_[v]) {
      OcgEdge& e = g.edges_[ei];
      if (!e.alive) continue;
      e.alive = false;
      removedHard |= (g.k_ == 2) ? e.hard() : g.hardRelationOf(e.cls) >= 0;
      const std::uint32_t other = (e.u == v) ? e.v : e.u;
      auto& oadj = g.adj_[other];
      oadj.erase(std::remove(oadj.begin(), oadj.end(), ei), oadj.end());
    }
    g.adj_[v].clear();
    if (removedHard) {
      rebuildHardStructure(g);
    } else {
      g.classColor_[v] = Color::Unassigned;
    }
  }

  /// Resets the whole hard structure and replays every alive hard edge in
  /// edge-index order; vertex colors carry over through a snapshot (last
  /// write per new root wins).
  static void rebuildHardStructure(OverlayConstraintGraph& g) {
    const std::size_t n = g.nets_.size();
    std::vector<Color> snapshot(n, Color::Unassigned);
    for (std::uint32_t v = 0; v < n; ++v) snapshot[v] = g.classColorOf(v);
    g.hard_ = GroupDsu<2>{};
    if (n > 0) g.hard_.ensure(n - 1);
    std::fill(g.classColor_.begin(), g.classColor_.end(), Color::Unassigned);
    g.hardViolations_ = 0;
    if (g.k_ == 2) {
      for (const OcgEdge& e : g.edges_) {
        if (!e.alive) continue;
        const int rel = g.hardRelationOf(e.cls);
        if (rel < 0) continue;
        if (!g.hard_.unite(e.u, e.v, std::uint8_t(rel))) ++g.hardViolations_;
      }
    } else {
      g.diffEdges_.clear();
      for (std::uint32_t ei = 0; ei < g.edges_.size(); ++ei) {
        const OcgEdge& e = g.edges_[ei];
        if (!e.alive) continue;
        const int rel = g.hardRelationOf(e.cls);
        if (rel == 0) {
          g.hard_.unite(e.u, e.v, 0);
        } else if (rel == 1) {
          g.diffEdges_.push_back(ei);
        }
      }
    }
    g.classMembers_.clear();
    for (std::uint32_t v = 0; v < n; ++v) {
      g.classMembers_[std::uint32_t(g.hard_.find(v).first)].push_back(v);
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      if (snapshot[v] == Color::Unassigned) continue;
      auto [root, par] = g.hard_.find(v);
      g.classColor_[std::uint32_t(root)] =
          par ? flippedColor(snapshot[v]) : snapshot[v];
    }
    if (g.k_ > 2) g.recountDiffViolations();
  }

  static int hardViolations(const OverlayConstraintGraph& g) {
    return g.hardViolations_;
  }

  /// Sorted members of v's class as recorded in classMembers_ (empty if
  /// the root has no entry).
  static std::vector<std::uint32_t> classMembers(
      const OverlayConstraintGraph& g, std::uint32_t v) {
    auto it = g.classMembers_.find(g.hardClassOf(v).first);
    if (it == g.classMembers_.end()) return {};
    std::vector<std::uint32_t> m = it->second;
    std::sort(m.begin(), m.end());
    return m;
  }

  static std::size_t classCount(const OverlayConstraintGraph& g) {
    return g.classMembers_.size();
  }
};

namespace {

Classification ofType(ScenarioType t) {
  Classification c;
  c.type = t;
  c.overlay = scenarioRule(t).overlay;
  c.cutRisk = scenarioRule(t).cutRisk;
  return c;
}

/// Classifications the k = 2 stream draws from: both parity relations, a
/// single-assignment ban (hard but not a parity edge), the geometric
/// scenario table, and immaterial pairs.
Classification randomClassification(std::mt19937& rng) {
  Classification c;
  switch (rng() % 6) {
    case 0:
      c.type = ScenarioType::T1a;
      c.overlay = {kHardCost, 0, 0, kHardCost};
      return c;
    case 1:
      c.type = ScenarioType::T1b;
      c.overlay = {0, kHardCost, kHardCost, 0};
      return c;
    case 2:
      c.type = ScenarioType::T3c;
      c.overlay = {0, kHardCost, 0, 1};
      return c;
    default:
      return ofType(ScenarioType(rng() % 12));
  }
}

// A k = 3 spec whose must-same relation is live (tpl3 only ever says
// "differ"), so equality classes actually form and split.
int eqHardRelation(const Classification& cls) {
  if (cls.type == ScenarioType::T1b) return 0;
  if (cls.type == ScenarioType::T1a) return 1;
  return -1;
}
std::int64_t eqPairOverlay(const Classification& cls, int ia, int ib) {
  const int rel = eqHardRelation(cls);
  if (rel == 0) return ia == ib ? 0 : kHardCost;
  if (rel == 1) return ia == ib ? kHardCost : 0;
  return ia == ib ? 1 : 0;
}
bool eqPairCutRisk(const Classification&, int, int) { return false; }
bool eqMaterial(const Classification& cls) { return !cls.independent(); }

const PatterningSpec kEqualitySpec{/*colorCount=*/3,
                                   /*id=*/0x7e57'0003ull,
                                   /*name=*/"eq3-test",
                                   /*pairOverlay=*/&eqPairOverlay,
                                   /*pairCutRisk=*/&eqPairCutRisk,
                                   /*material=*/&eqMaterial,
                                   /*hardRelation=*/&eqHardRelation};

/// Every observable of the hard structure must match between the two.
void expectSameStructure(const OverlayConstraintGraph& got,
                         const OverlayConstraintGraph& want,
                         const std::string& where) {
  ASSERT_EQ(got.vertexCount(), want.vertexCount()) << where;
  ASSERT_EQ(OcgTestAccess::hardViolations(got),
            OcgTestAccess::hardViolations(want))
      << where;
  ASSERT_EQ(got.hasHardViolation(), want.hasHardViolation()) << where;
  std::set<std::uint32_t> roots;
  for (std::uint32_t v = 0; v < got.vertexCount(); ++v) {
    ASSERT_EQ(got.netOf(v), want.netOf(v)) << where;
    ASSERT_EQ(got.hardClassOf(v), want.hardClassOf(v))
        << where << " vertex " << v;
    ASSERT_EQ(got.colorOf(got.netOf(v)), want.colorOf(want.netOf(v)))
        << where << " vertex " << v;
    ASSERT_EQ(OcgTestAccess::classMembers(got, v),
              OcgTestAccess::classMembers(want, v))
        << where << " vertex " << v;
    roots.insert(got.hardClassOf(v).first);
  }
  // classMembers_ is keyed by exactly the current roots.
  ASSERT_EQ(OcgTestAccess::classCount(got), roots.size()) << where;
  ASSERT_EQ(OcgTestAccess::classCount(want), roots.size()) << where;
}

/// Drives one seeded operation stream through both graphs, counting the
/// removals that split a multi-vertex class into *classRemovals.
void runStream(const PatterningSpec* spec, std::uint32_t seed,
               int* classRemovals) {
  std::mt19937 rng(seed * 2654435761u + 17u);
  OverlayConstraintGraph got(std::pmr::get_default_resource(), spec);
  OverlayConstraintGraph want(std::pmr::get_default_resource(), spec);
  const int k = got.colorCount();
  const NetId nets = NetId(4 + rng() % 21);
  const int ops = 150 + int(rng() % 250);
  for (int op = 0; op < ops; ++op) {
    const std::string where =
        "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const NetId a = NetId(rng() % nets);
    const unsigned kind = rng() % 10;
    if (kind < 5) {
      const NetId b = NetId(rng() % nets);  // a == b is ignored
      const Classification cls =
          spec == nullptr ? randomClassification(rng)
                          : ofType(ScenarioType(rng() % 12));
      const bool okGot = got.addScenario(a, b, cls);
      const bool okWant = want.addScenario(a, b, cls);
      ASSERT_EQ(okGot, okWant) << where;
    } else if (kind < 7) {
      const std::int64_t v = got.findVertex(a);
      if (v >= 0 &&
          OcgTestAccess::classMembers(got, std::uint32_t(v)).size() > 1) {
        ++*classRemovals;
      }
      got.removeNet(a);
      OcgTestAccess::removeNetFullRebuild(want, a);
    } else if (kind < 9) {
      const Color c = colorFromIndex(int(rng() % unsigned(k)));
      got.setColor(a, c);
      want.setColor(a, c);
    } else {
      const Color cGot = got.pseudoColor(a);
      const Color cWant = want.pseudoColor(a);
      ASSERT_EQ(cGot, cWant) << where;
    }
    expectSameStructure(got, want, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(OcgRemoveFuzz, TwoColorMatchesFullRebuild) {
  int classRemovals = 0;
  for (std::uint32_t seed = 0; seed < 300; ++seed) {
    runStream(nullptr, seed, &classRemovals);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  // The stream must actually split multi-vertex classes.
  EXPECT_GT(classRemovals, 1000);
}

// tpl3 has no must-same relation, so every hard class is a singleton:
// this covers the must-differ prune and recount.
TEST(OcgRemoveFuzz, Tpl3MatchesFullRebuild) {
  int classRemovals = 0;
  for (std::uint32_t seed = 0; seed < 150; ++seed) {
    runStream(&tpl3Backend().spec(), seed, &classRemovals);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
}

TEST(OcgRemoveFuzz, ThreeColorEqualityClassesMatchFullRebuild) {
  int classRemovals = 0;
  for (std::uint32_t seed = 0; seed < 150; ++seed) {
    runStream(&kEqualitySpec, seed, &classRemovals);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  EXPECT_GT(classRemovals, 300);
}

Classification hardDiff() {
  Classification c;
  c.type = ScenarioType::T1a;
  c.overlay = {kHardCost, 0, 0, kHardCost};
  return c;
}

// A root merged away by addScenario keeps its old classColor_ entry. When
// a removal splits the class and that vertex is a root again, the stale
// entry must not resurface: its new class has no colored member.
TEST(OcgRemove, MergedAwayRootComesBackUncolored) {
  OverlayConstraintGraph g;
  OverlayConstraintGraph oracle;
  for (OverlayConstraintGraph* x : {&g, &oracle}) {
    x->setColor(2, Color::Core);  // vertex 0, a colored singleton root
    // Equal ranks: vertex 0 (net 2) goes under vertex 1 (net 1), whose
    // class color is unset; colors of merged classes reconcile lazily.
    x->addScenario(1, 2, hardDiff());
  }
  ASSERT_EQ(g.hardClassOf(0).first, 1u);
  ASSERT_EQ(g.colorOf(2), Color::Unassigned);
  g.removeNet(1);
  OcgTestAccess::removeNetFullRebuild(oracle, 1);
  EXPECT_EQ(g.hardClassOf(0).first, 0u);  // a root again
  EXPECT_EQ(g.colorOf(2), Color::Unassigned);
  EXPECT_EQ(g.colorOf(1), Color::Unassigned);
  expectSameStructure(g, oracle, "merged-away root");
}

// A hard-path removal leaves the removed net a singleton that keeps its
// color, whether it was its class's root or not; the rest of the class
// keeps its colors too.
TEST(OcgRemove, RemovedNetKeepsItsColor) {
  for (const NetId removed : {NetId(1), NetId(2)}) {
    OverlayConstraintGraph g;
    OverlayConstraintGraph oracle;
    for (OverlayConstraintGraph* x : {&g, &oracle}) {
      x->addScenario(1, 2, hardDiff());
      x->addScenario(2, 3, hardDiff());
      x->setColor(1, Color::Core);
    }
    ASSERT_EQ(g.colorOf(2), Color::Second);
    const NetId kept = removed == 1 ? 2 : 1;
    const Color keptColor = g.colorOf(kept);
    g.removeNet(removed);
    OcgTestAccess::removeNetFullRebuild(oracle, removed);
    EXPECT_EQ(g.colorOf(removed), removed == 1 ? Color::Core : Color::Second);
    EXPECT_EQ(g.colorOf(kept), keptColor);
    EXPECT_EQ(g.colorOf(3), Color::Core);
    const auto v = std::uint32_t(g.findVertex(removed));
    EXPECT_EQ(OcgTestAccess::classMembers(g, v),
              std::vector<std::uint32_t>{v});
    expectSameStructure(g, oracle, "removed net " + std::to_string(removed));
  }
}

// Same-net pairs never become edges (a self-loop would sit twice in one
// adjacency list, which removeNet cannot unlink).
TEST(OcgRemove, SameNetPairIsIgnored) {
  OverlayConstraintGraph g;
  EXPECT_TRUE(g.addScenario(1, 1, hardDiff()));
  EXPECT_EQ(g.edges().size(), 0u);
  EXPECT_FALSE(g.hasHardViolation());
}

// The k = 2 violation count stays exact per odd cycle: removing a vertex
// of one odd cycle clears that cycle only.
TEST(OcgRemove, ViolationCountIsPerOddCycle) {
  OverlayConstraintGraph g;
  for (NetId base : {NetId(0), NetId(10)}) {
    g.addScenario(base + 1, base + 2, hardDiff());
    g.addScenario(base + 2, base + 3, hardDiff());
    EXPECT_FALSE(g.addScenario(base + 3, base + 1, hardDiff()));
  }
  EXPECT_EQ(OcgTestAccess::hardViolations(g), 2);
  g.removeNet(2);
  EXPECT_EQ(OcgTestAccess::hardViolations(g), 1);
  EXPECT_TRUE(g.hasHardViolation());
  g.removeNet(13);
  EXPECT_FALSE(g.hasHardViolation());
}

}  // namespace
}  // namespace sadp
