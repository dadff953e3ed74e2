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
//
// colorFlip re-solves only the components that changed since the last
// flip (DESIGN.md §5.4/5.5). Its oracle, colorFlipWholeLayer below, is the
// whole-layer flip it replaced: reduce every class, solve every component.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "ocg/graph.hpp"
#include "patterning/backend.hpp"
#include "patterning/flipping.hpp"

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

// ---- Whole-layer flip oracle ----------------------------------------------

/// Reduced view of the whole layer, as the whole-layer flip built it.
struct WholeLayerReduction {
  std::vector<std::uint32_t> classIndexOfVertex;
  std::vector<std::uint8_t> parityOfVertex;
  std::vector<Color> classColor;
  std::vector<std::array<std::int64_t, 2>> selfCost;
  std::vector<ReducedEdge> edges;

  std::size_t classCount() const { return classColor.size(); }
};

std::int64_t oracleEntryCost(const Classification& cls, int idx) {
  std::int64_t c = cls.overlay[idx];
  if (cls.cutRisk[idx]) c += OverlayConstraintGraph::kCutRiskPenalty;
  return c;
}

WholeLayerReduction reduceWholeLayer(const OverlayConstraintGraph& g) {
  WholeLayerReduction rg;
  const std::size_t n = g.vertexCount();
  rg.classIndexOfVertex.resize(n);
  rg.parityOfVertex.resize(n);
  std::unordered_map<std::uint32_t, std::uint32_t> rootToClass;
  for (std::uint32_t v = 0; v < n; ++v) {
    auto [root, par] = g.hardClassOf(v);
    auto [it, inserted] =
        rootToClass.try_emplace(root, std::uint32_t(rootToClass.size()));
    rg.classIndexOfVertex[v] = it->second;
    rg.parityOfVertex[v] = par;
    if (inserted) rg.classColor.push_back(Color::Unassigned);
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    const Color c = g.colorOf(g.netOf(v));
    if (c == Color::Unassigned) continue;
    const Color rootColor = rg.parityOfVertex[v] ? flippedColor(c) : c;
    rg.classColor[rg.classIndexOfVertex[v]] = rootColor;
  }
  rg.selfCost.assign(rg.classColor.size(), {0, 0});
  for (std::uint32_t v = 0; v < n; ++v) {
    for (int c = 0; c < 2; ++c) {
      const Color vc =
          rg.parityOfVertex[v] ? flippedColor(Color(c)) : Color(c);
      rg.selfCost[rg.classIndexOfVertex[v]][c] += g.priorOf(v, vc);
    }
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> pairIndex;
  for (const OcgEdge& e : g.edges()) {
    if (!e.alive) continue;
    const std::uint32_t cu = rg.classIndexOfVertex[e.u];
    const std::uint32_t cv = rg.classIndexOfVertex[e.v];
    const std::uint8_t pu = rg.parityOfVertex[e.u];
    const std::uint8_t pv = rg.parityOfVertex[e.v];
    if (cu == cv) {
      for (int c = 0; c < 2; ++c) {
        rg.selfCost[cu][c] += oracleEntryCost(e.cls, (c ^ pu) * 2 + (c ^ pv));
      }
      continue;
    }
    const bool ordered = cu < cv;
    const auto key = ordered ? std::make_pair(cu, cv) : std::make_pair(cv, cu);
    auto [it, inserted] = pairIndex.try_emplace(key, rg.edges.size());
    if (inserted) {
      ReducedEdge re;
      re.u = key.first;
      re.v = key.second;
      rg.edges.push_back(re);
    }
    ReducedEdge& re = rg.edges[it->second];
    re.hard |= e.hard();
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const int au = (ordered ? a : b) ^ pu;
        const int bv = (ordered ? b : a) ^ pv;
        re.cost[a * 2 + b] += oracleEntryCost(e.cls, au * 2 + bv);
      }
    }
  }
  for (ReducedEdge& re : rg.edges) {
    std::int64_t lo = re.cost[0], hi = re.cost[0];
    for (std::int64_t c : re.cost) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    re.weight = re.hard ? std::int64_t(kHardCost) * 16 + (hi - lo) : hi - lo;
  }
  return rg;
}

/// Union by size with path halving (the flip's tie rule: the first
/// argument's root wins equal sizes).
class OracleDsu {
 public:
  explicit OracleDsu(std::size_t n) : parent_(n), size_(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = std::uint32_t(i);
  }
  std::size_t find(std::size_t v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = std::uint32_t(a);
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

std::int64_t oracleEdgeCost(const ReducedEdge& e, Color cu, Color cv) {
  if (cu == Color::Unassigned || cv == Color::Unassigned) {
    // Best case over the combinations the colored endpoint admits.
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        if (cu != Color::Unassigned && int(cu) != a) continue;
        if (cv != Color::Unassigned && int(cv) != b) continue;
        best = std::min(best, e.cost[a * 2 + b]);
      }
    }
    return best;
  }
  return e.cost[int(cu) * 2 + int(cv)];
}

std::vector<Color> oracleTreeDp(const WholeLayerReduction& rg,
                                const std::vector<std::size_t>& treeEdges,
                                std::size_t rootClass) {
  std::vector<Color> out(rg.classCount(), Color::Unassigned);
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> adj;
  for (std::size_t ei : treeEdges) {
    adj[rg.edges[ei].u].push_back(ei);
    adj[rg.edges[ei].v].push_back(ei);
  }
  struct Visit {
    std::uint32_t node;
    std::uint32_t parent;
    std::size_t parentEdge;
  };
  std::vector<Visit> order;
  std::vector<Visit> stack{{std::uint32_t(rootClass), std::uint32_t(-1), 0}};
  std::vector<char> seen(rg.classCount(), 0);
  while (!stack.empty()) {
    Visit v = stack.back();
    stack.pop_back();
    if (seen[v.node]) continue;
    seen[v.node] = 1;
    order.push_back(v);
    for (std::size_t ei : adj[v.node]) {
      const ReducedEdge& e = rg.edges[ei];
      const std::uint32_t next = (e.u == v.node) ? e.v : e.u;
      if (!seen[next]) stack.push_back({next, v.node, ei});
    }
  }
  std::vector<std::array<std::int64_t, 2>> cost = rg.selfCost;
  std::vector<std::array<Color, 2>> childBest(
      rg.classCount(), {Color::Unassigned, Color::Unassigned});
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const Visit& v = *it;
    if (v.parent == std::uint32_t(-1)) continue;
    const ReducedEdge& e = rg.edges[v.parentEdge];
    for (int pc = 0; pc < 2; ++pc) {
      std::int64_t best = -1;
      Color bestColor = Color::Core;
      for (int cc = 0; cc < 2; ++cc) {
        const bool parentIsU = (e.u == v.parent);
        const int idx = parentIsU ? pc * 2 + cc : cc * 2 + pc;
        const std::int64_t total = cost[v.node][cc] + e.cost[idx];
        if (best < 0 || total < best) {
          best = total;
          bestColor = Color(cc);
        }
      }
      cost[v.parent][pc] += best;
      childBest[v.node][pc] = bestColor;
    }
  }
  out[rootClass] = cost[rootClass][0] <= cost[rootClass][1] ? Color::Core
                                                             : Color::Second;
  for (const Visit& v : order) {
    if (v.parent == std::uint32_t(-1)) continue;
    out[v.node] = childBest[v.node][int(out[v.parent])];
  }
  return out;
}

/// colorFlip as it was before dirty-local flipping: reduce the whole
/// layer, solve every component, write every vertex's color.
FlipStats colorFlipWholeLayer(OverlayConstraintGraph& g) {
  FlipStats stats;
  const WholeLayerReduction rg = reduceWholeLayer(g);
  if (rg.classCount() == 0) return stats;
  OracleDsu comp(rg.classCount());
  for (const ReducedEdge& e : rg.edges) comp.unite(e.u, e.v);
  std::unordered_map<std::size_t, std::vector<std::size_t>> edgesOfComp;
  for (std::size_t ei = 0; ei < rg.edges.size(); ++ei) {
    edgesOfComp[comp.find(rg.edges[ei].u)].push_back(ei);
  }
  auto selfCostUnder = [&](std::uint32_t c, Color col) {
    if (col == Color::Unassigned) {
      return std::min(rg.selfCost[c][0], rg.selfCost[c][1]);
    }
    return rg.selfCost[c][int(col)];
  };
  std::vector<Color> newColors = rg.classColor;
  for (auto& [root, compEdges] : edgesOfComp) {
    ++stats.components;
    std::int64_t before = 0;
    bool anyUncolored = false;
    std::vector<std::uint32_t> compClasses;
    for (std::size_t ei : compEdges) {
      const ReducedEdge& e = rg.edges[ei];
      anyUncolored |= rg.classColor[e.u] == Color::Unassigned ||
                      rg.classColor[e.v] == Color::Unassigned;
      before += oracleEdgeCost(e, rg.classColor[e.u], rg.classColor[e.v]);
      compClasses.push_back(e.u);
      compClasses.push_back(e.v);
    }
    std::sort(compClasses.begin(), compClasses.end());
    compClasses.erase(std::unique(compClasses.begin(), compClasses.end()),
                      compClasses.end());
    for (std::uint32_t c : compClasses) {
      before += selfCostUnder(c, rg.classColor[c]);
    }
    stats.costBefore += before;
    std::vector<std::size_t> sorted = compEdges;
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return rg.edges[a].weight > rg.edges[b].weight;
    });
    OracleDsu mst(rg.classCount());
    std::vector<std::size_t> treeEdges;
    for (std::size_t ei : sorted) {
      if (mst.unite(rg.edges[ei].u, rg.edges[ei].v)) treeEdges.push_back(ei);
    }
    const std::vector<Color> dp = oracleTreeDp(rg, treeEdges, root);
    std::int64_t after = 0;
    for (std::size_t ei : compEdges) {
      const ReducedEdge& e = rg.edges[ei];
      after += oracleEdgeCost(e, dp[e.u], dp[e.v]);
    }
    for (std::uint32_t c : compClasses) after += selfCostUnder(c, dp[c]);
    if (after <= before || anyUncolored) {
      bool changed = false;
      for (std::size_t c = 0; c < rg.classCount(); ++c) {
        if (dp[c] == Color::Unassigned) continue;
        changed |= dp[c] != newColors[c];
        newColors[c] = dp[c];
      }
      stats.costAfter += after;
      if (changed && after < before) ++stats.componentsImproved;
    } else {
      stats.costAfter += before;
    }
  }
  std::vector<char> inComponent(rg.classCount(), 0);
  for (const ReducedEdge& e : rg.edges) {
    inComponent[e.u] = 1;
    inComponent[e.v] = 1;
  }
  for (std::size_t c = 0; c < rg.classCount(); ++c) {
    if (inComponent[c]) continue;
    const std::int64_t coreCost = rg.selfCost[c][0];
    const std::int64_t secondCost = rg.selfCost[c][1];
    if (newColors[c] == Color::Unassigned || coreCost != secondCost) {
      newColors[c] = coreCost <= secondCost ? Color::Core : Color::Second;
    }
  }
  std::vector<Color> vertexColors(g.vertexCount(), Color::Unassigned);
  for (std::uint32_t v = 0; v < g.vertexCount(); ++v) {
    const Color cc = newColors[rg.classIndexOfVertex[v]];
    if (cc == Color::Unassigned) continue;
    vertexColors[v] = rg.parityOfVertex[v] ? flippedColor(cc) : cc;
  }
  g.applyColors(vertexColors);
  return stats;
}

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

// ---- Local flip vs the whole-layer oracle ---------------------------------

/// Drives one seeded k = 2 stream through twin graphs; `got` flips locally,
/// `want` through the oracle. Counts flips that improved a component and
/// flips that left some vertex out of the local reduction.
void runFlipStream(std::uint32_t seed, int* improvingFlips,
                   int* partialFlips) {
  std::mt19937 rng(seed * 2246822519u + 3u);
  OverlayConstraintGraph got;
  OverlayConstraintGraph want;
  const NetId nets = NetId(6 + rng() % 35);
  const int ops = 100 + int(rng() % 300);
  for (int op = 0; op < ops; ++op) {
    const std::string where =
        "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const NetId a = NetId(rng() % nets);
    const unsigned kind = rng() % 16;
    if (kind < 6) {
      const NetId b = NetId(rng() % nets);
      const Classification cls = randomClassification(rng);
      ASSERT_EQ(got.addScenario(a, b, cls), want.addScenario(a, b, cls))
          << where;
    } else if (kind < 8) {
      got.removeNet(a);
      want.removeNet(a);
    } else if (kind < 10) {
      const Color c = rng() % 2 ? Color::Second : Color::Core;
      got.setColor(a, c);
      want.setColor(a, c);
    } else if (kind < 11) {
      ASSERT_EQ(got.pseudoColor(a), want.pseudoColor(a)) << where;
    } else if (kind < 12) {
      const std::int64_t core = rng() % 3 == 0 ? 0 : rng() % 4;
      const std::int64_t second = rng() % 3 == 0 ? 0 : rng() % 4;
      got.setPrior(a, core, second);
      want.setPrior(a, core, second);
    } else {
      const std::size_t dirty = got.closeDirtyComponents().size();
      *partialFlips += dirty > 0 && dirty < got.vertexCount();
      const FlipStats sGot = colorFlip(got);
      const FlipStats sWant = colorFlipWholeLayer(want);
      ASSERT_EQ(sGot.componentsImproved, sWant.componentsImproved) << where;
      *improvingFlips += sGot.componentsImproved > 0;
      ASSERT_EQ(got.vertexCount(), want.vertexCount()) << where;
      for (std::uint32_t v = 0; v < got.vertexCount(); ++v) {
        ASSERT_EQ(got.vertexColor(v), want.vertexColor(v))
            << where << " vertex " << v;
      }
    }
  }
}

TEST(OcgFlipFuzz, LocalFlipMatchesWholeLayer) {
  int improvingFlips = 0;
  int partialFlips = 0;
  for (std::uint32_t seed = 0; seed < 300; ++seed) {
    runFlipStream(seed, &improvingFlips, &partialFlips);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  // The streams must both change colors and skip untouched components.
  EXPECT_GT(improvingFlips, 2000);
  EXPECT_GT(partialFlips, 5000);
}

}  // namespace
}  // namespace sadp
