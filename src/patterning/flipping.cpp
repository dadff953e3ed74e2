#include "patterning/flipping.hpp"

#include <algorithm>
#include <cassert>
#include <memory_resource>
#include <numeric>
#include <span>

#include "ocg/overlay_model.hpp"
#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "util/arena.hpp"

namespace sadp {

namespace {

constexpr std::int64_t kHardWeight = std::int64_t(kHardCost) * 16;
constexpr std::uint32_t kNone = ~std::uint32_t(0);

std::int64_t entryCost(const Classification& cls, int idx) {
  std::int64_t c = cls.overlay[idx];
  if (cls.cutRisk[idx]) c += OverlayConstraintGraph::kCutRiskPenalty;
  return c;
}

/// Open-addressing map from an ordered class pair to its reduced edge,
/// sized once for `maxKeys` insertions and bump-allocated from the arena.
class PairIndex {
 public:
  PairIndex(Arena& a, std::size_t maxKeys) {
    while (cap_ < 2 * maxKeys) cap_ *= 2;
    keys_ = a.allocArray<std::uint64_t>(cap_);
    vals_ = a.allocArray<std::uint32_t>(cap_);
    std::fill(keys_, keys_ + cap_, kEmpty);
  }
  /// Slot value for (u, v), inserting `fresh` if the pair is new.
  std::pair<std::uint32_t, bool> tryEmplace(std::uint32_t u, std::uint32_t v,
                                            std::uint32_t fresh) {
    const std::uint64_t key = (std::uint64_t(u) << 32) | v;
    std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> 32 & (cap_ - 1);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return {vals_[i], false};
      i = (i + 1) & (cap_ - 1);
    }
    keys_[i] = key;
    vals_[i] = fresh;
    return {fresh, true};
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);
  std::size_t cap_ = 8;
  std::uint64_t* keys_;
  std::uint32_t* vals_;
};

/// Reduces the vertices `verts` -- ascending, and closed under alive edges,
/// so every class root and edge endpoint met below is among them -- into
/// `rg`. Classes are indexed in ascending order of their smallest member
/// and reduced edges in ascending order of their first scenario edge, so a
/// component comes out in the same relative order whether it is reduced
/// alone or with the whole layer (DESIGN.md §5.4/5.5).
void reduceInto(const OverlayConstraintGraph& g,
                std::span<const std::uint32_t> verts, Arena& arena,
                ReducedGraph& rg) {
  // Vertex-indexed scratch, uninitialized except at `verts`: a vertex's
  // class index (for a root, also its own class's index) and parity.
  std::uint32_t* classOf = arena.allocArray<std::uint32_t>(g.vertexCount());
  std::uint8_t* parityOf = arena.allocArray<std::uint8_t>(g.vertexCount());
  for (std::uint32_t v : verts) classOf[v] = kNone;
  std::size_t edgeCount = 0;
  for (std::uint32_t v : verts) {
    const auto [root, par] = g.hardClassOf(v);
    if (classOf[root] == kNone) {
      classOf[root] = std::uint32_t(rg.classRoot.size());
      rg.classRoot.push_back(root);
      rg.classColor.push_back(g.vertexColor(root));
      rg.selfCost.push_back({0, 0});
    }
    classOf[v] = classOf[root];
    parityOf[v] = par;
    // Per-vertex priors and intra-class non-hard edges contribute
    // per-class self-costs.
    for (int c = 0; c < 2; ++c) {
      const Color vc = par ? flippedColor(Color(c)) : Color(c);
      rg.selfCost[classOf[v]][c] += g.priorOf(v, vc);
    }
    edgeCount += g.incidentEdges(v).size();
  }
  edgeCount /= 2;  // every edge sits in both endpoints' adjacency

  std::uint32_t* edgeIds = arena.allocArray<std::uint32_t>(edgeCount);
  std::size_t m = 0;
  for (std::uint32_t v : verts) {
    for (std::uint32_t ei : g.incidentEdges(v)) {
      if (g.edges()[ei].u == v) edgeIds[m++] = ei;
    }
  }
  assert(m == edgeCount);
  std::sort(edgeIds, edgeIds + m);

  // Aggregate cross-class edges per unordered class pair (parallel
  // scenario edges sum their cost vectors).
  PairIndex pairIndex(arena, m);
  for (std::size_t i = 0; i < m; ++i) {
    const OcgEdge& e = g.edges()[edgeIds[i]];
    assert(e.alive);
    const std::uint32_t cu = classOf[e.u];
    const std::uint32_t cv = classOf[e.v];
    const std::uint8_t pu = parityOf[e.u];
    const std::uint8_t pv = parityOf[e.v];
    if (cu == cv) {
      for (int c = 0; c < 2; ++c) {
        rg.selfCost[cu][c] += entryCost(e.cls, (c ^ pu) * 2 + (c ^ pv));
      }
      continue;
    }
    const bool ordered = cu < cv;
    const auto [idx, inserted] =
        pairIndex.tryEmplace(ordered ? cu : cv, ordered ? cv : cu,
                             std::uint32_t(rg.edges.size()));
    if (inserted) {
      ReducedEdge re;
      re.u = ordered ? cu : cv;
      re.v = ordered ? cv : cu;
      rg.edges.push_back(re);
    }
    ReducedEdge& re = rg.edges[idx];
    re.hard |= e.hard();
    // Fold member parities: class assignment (a, b) on (re.u, re.v) means
    // vertex colors (a ^ p, b ^ p'); map to the edge's (u, v) order.
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) {
        const int au = (ordered ? a : b) ^ pu;  // color index of e.u
        const int bv = (ordered ? b : a) ^ pv;  // color index of e.v
        re.cost[a * 2 + b] += entryCost(e.cls, au * 2 + bv);
      }
    }
  }
  // Edge significance: spread between worst and best finite outcome; hard
  // edges always dominate (paper: "a constant larger than any cost").
  for (ReducedEdge& re : rg.edges) {
    std::int64_t lo = re.cost[0], hi = re.cost[0];
    for (std::int64_t c : re.cost) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    re.weight = re.hard ? kHardWeight + (hi - lo) : hi - lo;
  }
}

/// Plain union-find for component extraction / Kruskal: union by size with
/// path halving, storage bump-allocated from the run's scratch arena (the
/// caller's ArenaScope reclaims it).
class Dsu {
 public:
  Dsu(Arena& a, std::size_t n)
      : parent_(a.allocArray<std::uint32_t>(n)),
        size_(a.allocArray<std::uint32_t>(n)) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = std::uint32_t(i);
      size_[i] = 1;
    }
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
  std::uint32_t* parent_;
  std::uint32_t* size_;
};

std::int64_t edgeCostUnder(const ReducedEdge& e, Color cu, Color cv) {
  if (cu == Color::Unassigned || cv == Color::Unassigned) {
    std::int64_t best = e.cost[0];
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

/// Flipping-graph DP, eq. (4), on one tree component. The tables span the
/// whole reduced graph and are allocated once per flip; each solve touches
/// only its own component's classes.
class TreeDp {
 public:
  TreeDp(Arena& a, const ReducedGraph& rg)
      : rg_(rg),
        cost_(a.allocArray<std::array<std::int64_t, 2>>(rg.classCount())),
        childBest_(a.allocArray<std::array<Color, 2>>(rg.classCount())),
        seen_(a.allocArray<std::uint8_t>(rg.classCount())),
        out_(a.allocArray<Color>(rg.classCount())),
        adjBegin_(a.allocArray<std::uint32_t>(rg.classCount())),
        adjEnd_(a.allocArray<std::uint32_t>(rg.classCount())),
        adj_(a.allocArray<std::uint32_t>(2 * rg.classCount())),
        order_(&a),
        stack_(&a) {}

  /// Optimal colors of `compClasses`, read back through color(), for the
  /// spanning tree `treeEdges` (indices into rg.edges) rooted at `root`.
  void solve(std::span<const std::uint32_t> compClasses,
             std::span<const std::uint32_t> treeEdges, std::uint32_t root) {
    // Tree adjacency in CSR form; each class lists its edges in tree-edge
    // order, which fixes the DFS order below.
    for (std::uint32_t c : compClasses) {
      adjEnd_[c] = 0;
      seen_[c] = 0;
      cost_[c] = rg_.selfCost[c];
    }
    for (std::uint32_t ei : treeEdges) {
      ++adjEnd_[rg_.edges[ei].u];
      ++adjEnd_[rg_.edges[ei].v];
    }
    std::uint32_t next = 0;
    for (std::uint32_t c : compClasses) {
      adjBegin_[c] = next;
      next += adjEnd_[c];
      adjEnd_[c] = adjBegin_[c];
    }
    for (std::uint32_t ei : treeEdges) {
      adj_[adjEnd_[rg_.edges[ei].u]++] = ei;
      adj_[adjEnd_[rg_.edges[ei].v]++] = ei;
    }
    // Iterative DFS order from the root.
    order_.clear();
    stack_.clear();
    stack_.push_back({root, kNone, 0});
    while (!stack_.empty()) {
      const Visit v = stack_.back();
      stack_.pop_back();
      if (seen_[v.node]) continue;
      seen_[v.node] = 1;
      order_.push_back(v);
      for (std::uint32_t i = adjBegin_[v.node]; i < adjEnd_[v.node]; ++i) {
        const ReducedEdge& e = rg_.edges[adj_[i]];
        const std::uint32_t nextNode = (e.u == v.node) ? e.v : e.u;
        if (!seen_[nextNode]) stack_.push_back({nextNode, v.node, adj_[i]});
      }
    }
    // Bottom-up DP, eq. (4): cost[node][c] = selfCost[node][c] + sum over
    // children of min_p (cost[child][p] + edgeCost(c, p)).
    for (std::size_t k = order_.size(); k-- > 0;) {
      const Visit& v = order_[k];
      if (v.parent == kNone) continue;
      const ReducedEdge& e = rg_.edges[v.parentEdge];
      for (int pc = 0; pc < 2; ++pc) {
        std::int64_t best = -1;
        Color bestColor = Color::Core;
        for (int cc = 0; cc < 2; ++cc) {
          // Edge cost with the parent's color on the parent endpoint.
          const bool parentIsU = (e.u == v.parent);
          const int idx = parentIsU ? pc * 2 + cc : cc * 2 + pc;
          const std::int64_t total = cost_[v.node][cc] + e.cost[idx];
          if (best < 0 || total < best) {
            best = total;
            bestColor = Color(cc);
          }
        }
        cost_[v.parent][pc] += best;
        childBest_[v.node][pc] = bestColor;
      }
    }
    // Backtrace from the root.
    out_[root] = cost_[root][0] <= cost_[root][1] ? Color::Core
                                                  : Color::Second;
    for (std::size_t k = 0; k < order_.size(); ++k) {
      const Visit& v = order_[k];
      if (v.parent == kNone) continue;
      out_[v.node] = childBest_[v.node][int(out_[v.parent])];
    }
  }

  Color color(std::uint32_t c) const { return out_[c]; }

 private:
  struct Visit {
    std::uint32_t node;
    std::uint32_t parent;
    std::uint32_t parentEdge;
  };

  const ReducedGraph& rg_;
  std::array<std::int64_t, 2>* cost_;
  std::array<Color, 2>* childBest_;  ///< [child][parent color] -> color
  std::uint8_t* seen_;
  Color* out_;
  std::uint32_t* adjBegin_;
  std::uint32_t* adjEnd_;
  std::uint32_t* adj_;
  std::pmr::vector<Visit> order_;
  std::pmr::vector<Visit> stack_;
};

/// Solves every component of `rg` and writes the chosen class colors into
/// `newColors` (initialized to rg.classColor). O(V + E) plus the sorts.
FlipStats solveReduced(const ReducedGraph& rg, Arena& arena,
                       Color* newColors) {
  FlipStats stats;
  const std::size_t nc = rg.classCount();
  const std::size_t ne = rg.edges.size();

  // Components over all reduced edges; the DSU root is also the DP root.
  Dsu comp(arena, nc);
  for (const ReducedEdge& e : rg.edges) comp.unite(e.u, e.v);
  // Bucket edges, and the classes they touch, by component root (counting
  // sort: ascending index inside each bucket).
  std::uint32_t* edgeBegin = arena.allocArray<std::uint32_t>(nc + 1);
  std::uint32_t* classBegin = arena.allocArray<std::uint32_t>(nc + 1);
  std::uint8_t* hasEdge = arena.allocArray<std::uint8_t>(nc);
  std::fill(edgeBegin, edgeBegin + nc + 1, 0);
  std::fill(classBegin, classBegin + nc + 1, 0);
  std::fill(hasEdge, hasEdge + nc, 0);
  for (const ReducedEdge& e : rg.edges) {
    ++edgeBegin[comp.find(e.u) + 1];
    hasEdge[e.u] = hasEdge[e.v] = 1;
  }
  for (std::size_t c = 0; c < nc; ++c) {
    if (hasEdge[c]) ++classBegin[comp.find(c) + 1];
  }
  std::partial_sum(edgeBegin, edgeBegin + nc + 1, edgeBegin);
  std::partial_sum(classBegin, classBegin + nc + 1, classBegin);
  std::uint32_t* compEdges = arena.allocArray<std::uint32_t>(ne);
  std::uint32_t* compClasses = arena.allocArray<std::uint32_t>(nc);
  {
    std::uint32_t* fillE = arena.allocArray<std::uint32_t>(nc);
    std::uint32_t* fillC = arena.allocArray<std::uint32_t>(nc);
    std::copy(edgeBegin, edgeBegin + nc, fillE);
    std::copy(classBegin, classBegin + nc, fillC);
    for (std::uint32_t ei = 0; ei < ne; ++ei) {
      compEdges[fillE[comp.find(rg.edges[ei].u)]++] = ei;
    }
    for (std::uint32_t c = 0; c < nc; ++c) {
      if (hasEdge[c]) compClasses[fillC[comp.find(c)]++] = c;
    }
  }

  // One Kruskal DSU for the whole call: components are disjoint, so each
  // component's unions see exactly what a DSU of its own would.
  Dsu mst(arena, nc);
  std::uint32_t* sorted = arena.allocArray<std::uint32_t>(ne);
  std::uint32_t* treeEdges = arena.allocArray<std::uint32_t>(nc);
  TreeDp dp(arena, rg);
  auto selfCostUnder = [&](std::uint32_t c, Color col) {
    if (col == Color::Unassigned) {
      return std::min(rg.selfCost[c][0], rg.selfCost[c][1]);
    }
    return rg.selfCost[c][int(col)];
  };
  for (std::uint32_t root = 0; root < nc; ++root) {
    const std::span<const std::uint32_t> edges(
        compEdges + edgeBegin[root], edgeBegin[root + 1] - edgeBegin[root]);
    if (edges.empty()) continue;
    const std::span<const std::uint32_t> classes(
        compClasses + classBegin[root],
        classBegin[root + 1] - classBegin[root]);
    ++stats.components;
    // Cost of the component under the current coloring. A component with
    // uncolored classes has no meaningful "before": always take the DP.
    std::int64_t before = 0;
    bool anyUncolored = false;
    for (std::uint32_t ei : edges) {
      const ReducedEdge& e = rg.edges[ei];
      anyUncolored |= rg.classColor[e.u] == Color::Unassigned ||
                      rg.classColor[e.v] == Color::Unassigned;
      before += edgeCostUnder(e, rg.classColor[e.u], rg.classColor[e.v]);
    }
    for (std::uint32_t c : classes) {
      before += selfCostUnder(c, rg.classColor[c]);
    }
    stats.costBefore += before;

    // Maximum spanning tree (Kruskal on descending weight).
    std::copy(edges.begin(), edges.end(), sorted);
    std::sort(sorted, sorted + edges.size(),
              [&](std::uint32_t a, std::uint32_t b) {
                return rg.edges[a].weight > rg.edges[b].weight;
              });
    std::size_t treeSize = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const ReducedEdge& e = rg.edges[sorted[i]];
      if (mst.unite(e.u, e.v)) treeEdges[treeSize++] = sorted[i];
    }

    dp.solve(classes, {treeEdges, treeSize}, root);
    // True component cost under the DP coloring (non-tree edges included).
    std::int64_t after = 0;
    for (std::uint32_t ei : edges) {
      const ReducedEdge& e = rg.edges[ei];
      after += edgeCostUnder(e, dp.color(e.u), dp.color(e.v));
    }
    for (std::uint32_t c : classes) after += selfCostUnder(c, dp.color(c));
    if (after <= before || anyUncolored) {
      bool changed = false;
      for (std::uint32_t c : classes) {
        changed |= dp.color(c) != newColors[c];
        newColors[c] = dp.color(c);
      }
      stats.costAfter += after;
      if (changed && after < before) ++stats.componentsImproved;
    } else {
      stats.costAfter += before;
    }
  }

  // Classes untouched by any reduced edge (isolated or intra-only) are
  // optimized directly by their self-cost (ties keep the current color).
  for (std::size_t c = 0; c < nc; ++c) {
    if (hasEdge[c]) continue;
    const std::int64_t coreCost = rg.selfCost[c][0];
    const std::int64_t secondCost = rg.selfCost[c][1];
    if (newColors[c] == Color::Unassigned || coreCost != secondCost) {
      newColors[c] = coreCost <= secondCost ? Color::Core : Color::Second;
    }
  }
  return stats;
}

}  // namespace

ReducedGraph reduceGraph(const OverlayConstraintGraph& g) {
  Arena& arena = RunContext::current().scratchArena();
  ArenaScope scope(arena);
  std::uint32_t* all = arena.allocArray<std::uint32_t>(g.vertexCount());
  std::iota(all, all + g.vertexCount(), std::uint32_t(0));
  ReducedGraph rg;
  reduceInto(g, {all, g.vertexCount()}, arena, rg);
  return rg;
}

FlipStats colorFlip(OverlayConstraintGraph& g) {
  RunContext& ctx = RunContext::current();
  Counter& classesReduced = ctx.metrics().counter("flip.classes_reduced");
  const std::vector<std::uint32_t>& dirty = g.closeDirtyComponents();
  if (dirty.empty()) return {};

  // Every table below is scratch bump-allocated from the run's arena; the
  // scope rewind reclaims it wholesale (DESIGN.md §5.9).
  Arena& arena = ctx.scratchArena();
  ArenaScope scope(arena);
  ReducedGraph rg(&arena);
  reduceInto(g, dirty, arena, rg);
  classesReduced.add(std::int64_t(rg.classCount()));

  Color* newColors = arena.allocArray<Color>(rg.classCount());
  std::copy(rg.classColor.begin(), rg.classColor.end(), newColors);
  const FlipStats stats = solveReduced(rg, arena, newColors);
  for (std::size_t c = 0; c < rg.classCount(); ++c) {
    if (newColors[c] != rg.classColor[c]) {
      g.setVertexColor(rg.classRoot[c], newColors[c]);
    }
  }
  g.clearDirty();
  return stats;
}

FlipStats colorFlipAll(OverlayModel& model) {
  FlipStats total;
  for (int layer = 0; layer < model.layers(); ++layer) {
    const FlipStats s = colorFlip(model.graph(layer));
    total.costBefore += s.costBefore;
    total.costAfter += s.costAfter;
    total.components += s.components;
    total.componentsImproved += s.componentsImproved;
  }
  return total;
}

}  // namespace sadp
