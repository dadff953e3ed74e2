#include "ocg/graph.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

namespace sadp {

namespace {

/// Whether a hard classification is parity-expressible, and if so which
/// relative parity it enforces: {CC, SS} forbidden => colors must differ
/// (rel 1, type 1-a); {CS, SC} forbidden => same color (rel 0, type 1-b).
/// Single-assignment bans (Fig. 11(f) style) are NOT parity constraints and
/// are enforced through coloring costs instead.
std::optional<std::uint8_t> hardParity(const Classification& cls) {
  bool f[4];
  for (int i = 0; i < 4; ++i) f[i] = cls.overlay[i] >= kHardCost;
  if (f[0] && f[3] && !f[1] && !f[2]) return std::uint8_t(1);
  if (f[1] && f[2] && !f[0] && !f[3]) return std::uint8_t(0);
  return std::nullopt;
}

}  // namespace

std::uint32_t OverlayConstraintGraph::vertexFor(NetId net) {
  auto it = idx_.find(net);
  if (it != idx_.end()) return it->second;
  const std::uint32_t v = std::uint32_t(nets_.size());
  nets_.push_back(net);
  adj_.emplace_back();
  idx_.emplace(net, v);
  hard_.ensure(v);
  classColor_.push_back(Color::Unassigned);
  classMembers_[v] = {v};
  dirty_.push_back(0);
  markDirty(v);
  return v;
}

std::int64_t OverlayConstraintGraph::findVertex(NetId net) const {
  auto it = idx_.find(net);
  return it == idx_.end() ? -1 : std::int64_t(it->second);
}

int OverlayConstraintGraph::hardRelationOf(const Classification& cls) const {
  if (k_ == 2) {
    if (!cls.hard()) return -1;
    const std::optional<std::uint8_t> rel = hardParity(cls);
    return rel ? int(*rel) : -1;
  }
  return (spec_ && spec_->hardRelation) ? spec_->hardRelation(cls) : -1;
}

void OverlayConstraintGraph::recountDiffViolations() {
  // k >= 3 invariant: hardViolations_ == number of alive must-differ edges
  // whose endpoints landed in the same equality class. Unlike k == 2, where
  // a contradicting unite leaves no trace in the DSU (so the edge carries a
  // failed bit), this count is recomputable from the DSU, which removeNet's
  // class rebuild and class merges rely on.
  int n = 0;
  for (std::uint32_t ei : diffEdges_) {
    const OcgEdge& e = edges_[ei];
    if (!e.alive) continue;
    auto [ru, du] = hard_.find(e.u);
    auto [rv, dv] = hard_.find(e.v);
    (void)du;
    (void)dv;
    if (ru == rv) ++n;
  }
  hardViolations_ = n;
}

bool OverlayConstraintGraph::addScenario(NetId a, NetId b,
                                         const Classification& cls) {
  // Fragments of one net never interact (Theorem 3); a self-loop would
  // also sit twice in one adjacency list, which removeNet cannot unlink.
  if (a == b) return true;
  const bool material = (k_ == 2 || !spec_ || !spec_->material)
                            ? cls.material()
                            : spec_->material(cls);
  if (!material) return true;
  const std::uint32_t u = vertexFor(a);
  const std::uint32_t v = vertexFor(b);
  markDirty(u);
  markDirty(v);
  OcgEdge e;
  e.u = u;
  e.v = v;
  e.cls = cls;
  const std::size_t ei = edges_.size();
  edges_.push_back(e);
  adj_[u].push_back(std::uint32_t(ei));
  adj_[v].push_back(std::uint32_t(ei));
  if (k_ > 2) {
    const int rel = hardRelationOf(cls);
    if (rel < 0) return true;
    if (rel == 1) {
      // Must-differ is not a group relation for k >= 3; track the edge on
      // the side. It is violated iff its endpoints are (or later become)
      // equality-constrained.
      diffEdges_.push_back(std::uint32_t(ei));
      auto [ru, du] = hard_.find(u);
      auto [rv, dv] = hard_.find(v);
      (void)du;
      (void)dv;
      if (ru == rv) {
        ++hardViolations_;
        return false;
      }
      return true;
    }
    // rel == 0: merge equality classes (delta 0 never contradicts).
    auto [ru, du] = hard_.find(u);
    auto [rv, dv] = hard_.find(v);
    (void)du;
    (void)dv;
    if (ru == rv) return true;
    const int before = hardViolations_;
    hard_.unite(u, v, 0);
    auto [newRoot, nd] = hard_.find(u);
    (void)nd;
    const std::uint32_t winner = std::uint32_t(newRoot);
    const std::uint32_t loser =
        (winner == ru) ? std::uint32_t(rv) : std::uint32_t(ru);
    auto& win = classMembers_[winner];
    auto& lose = classMembers_[loser];
    win.insert(win.end(), lose.begin(), lose.end());
    classMembers_.erase(loser);
    recountDiffViolations();  // the merge may close must-differ edges
    return hardViolations_ <= before;
  }
  if (!cls.hard()) return true;
  const std::optional<std::uint8_t> relOpt = hardParity(cls);
  if (!relOpt) return true;  // single-assignment ban: cost-enforced only
  const std::uint8_t rel = *relOpt;
  auto [ru, pu] = hard_.find(u);
  auto [rv, pv] = hard_.find(v);
  // Colors of merged classes are reconciled lazily: classColorOf() reads
  // through the root, and pseudoColor()/flipping rewrite class colors.
  if (!hard_.unite(u, v, rel)) {
    ++hardViolations_;
    edges_[ei].failed = true;
    return false;
  }
  if (ru != rv) {
    auto [newRoot, np] = hard_.find(u);
    const std::uint32_t winner = std::uint32_t(newRoot);
    const std::uint32_t loser = (winner == ru) ? std::uint32_t(rv)
                                               : std::uint32_t(ru);
    auto& win = classMembers_[winner];
    auto& lose = classMembers_[loser];
    win.insert(win.end(), lose.begin(), lose.end());
    classMembers_.erase(loser);
    (void)np;
  }
  return true;
}

void OverlayConstraintGraph::removeNet(NetId net) {
  auto it = idx_.find(net);
  if (it == idx_.end()) return;
  const std::uint32_t v = it->second;
  // Each piece the removal splits v's component into holds v or one of
  // its former neighbours.
  markDirty(v);
  bool removedHard = false;
  for (std::uint32_t ei : adj_[v]) {
    OcgEdge& e = edges_[ei];
    if (!e.alive) continue;
    e.alive = false;
    if (e.failed) {
      --hardViolations_;
      e.failed = false;
    }
    removedHard |= (k_ == 2) ? e.hard() : hardRelationOf(e.cls) >= 0;
    const std::uint32_t other = (e.u == v) ? e.v : e.u;
    markDirty(other);
    auto& oadj = adj_[other];
    oadj.erase(std::remove(oadj.begin(), oadj.end(), ei), oadj.end());
  }
  adj_[v].clear();
  if (removedHard) {
    rebuildHardClass(v);
  } else {
    // Without hard edges the vertex is a singleton class; dropping its
    // color entry cannot affect anyone else.
    classColor_[v] = Color::Unassigned;
  }
}

void OverlayConstraintGraph::rebuildHardClass(std::uint32_t v) {
  // Invariant: the DSU equals a replay of the alive hard edges in edge-index
  // order. Removing v's edges can only split v's class, and union by rank
  // depends only on the two sets joined, so replaying that class's
  // surviving edges from singletons (in the same order) yields exactly the
  // roots, parities and ranks of a full replay.
  auto node = classMembers_.extract(std::uint32_t(hard_.find(v).first));
  assert(!node.empty());
  std::vector<std::uint32_t> members = std::move(node.mapped());
  std::sort(members.begin(), members.end());
  // Vertex colors survive the re-rooting (v keeps its own on its new
  // singleton). Every member's entry goes, not just the root's: a root
  // merged away earlier keeps a stale one, and it may be a root again.
  std::vector<Color> colors(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    colors[i] = classColorOf(members[i]);
  }
  std::vector<std::uint32_t> hardEdges;
  for (std::uint32_t w : members) {
    classColor_[w] = Color::Unassigned;
    hard_.reset(w);
    for (std::uint32_t ei : adj_[w]) {
      const OcgEdge& e = edges_[ei];
      const bool replay = (k_ == 2) ? e.hard() && hardParity(e.cls)
                                    : hardRelationOf(e.cls) == 0;
      if (e.alive && replay) hardEdges.push_back(ei);
    }
  }
  // Each intra-class edge sits in both endpoints' adjacency.
  std::sort(hardEdges.begin(), hardEdges.end());
  hardEdges.erase(std::unique(hardEdges.begin(), hardEdges.end()),
                  hardEdges.end());
  for (std::uint32_t ei : hardEdges) {
    OcgEdge& e = edges_[ei];
    if (k_ > 2) {
      hard_.unite(e.u, e.v, 0);
      continue;
    }
    hardViolations_ -= e.failed;
    e.failed = !hard_.unite(e.u, e.v, *hardParity(e.cls));
    hardViolations_ += e.failed;
  }
  for (std::uint32_t w : members) {
    classMembers_[std::uint32_t(hard_.find(w).first)].push_back(w);
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (colors[i] == Color::Unassigned) continue;
    auto [root, par] = hard_.find(members[i]);
    classColor_[std::uint32_t(root)] =
        par ? flippedColor(colors[i]) : colors[i];  // last write wins
  }
  if (k_ > 2) {
    std::erase_if(diffEdges_,
                  [&](std::uint32_t ei) { return !edges_[ei].alive; });
    recountDiffViolations();
  }
}

Color OverlayConstraintGraph::classColorOf(std::uint32_t vertex) const {
  auto [root, par] = hard_.find(vertex);
  const Color c = classColor_[root];
  return par ? flippedColor(c) : c;  // Unassigned flips to Unassigned
}

Color OverlayConstraintGraph::colorOf(NetId net) const {
  auto it = idx_.find(net);
  if (it == idx_.end()) return Color::Unassigned;
  return classColorOf(it->second);
}

void OverlayConstraintGraph::setColor(NetId net, Color c) {
  setVertexColor(vertexFor(net), c);
}

void OverlayConstraintGraph::setVertexColor(std::uint32_t v, Color c) {
  auto [root, par] = hard_.find(v);
  classColor_[std::uint32_t(root)] = par ? flippedColor(c) : c;
  markDirty(v);  // the class is connected, so its component is v's
}

std::int64_t OverlayConstraintGraph::costOfAssignment(const OcgEdge& e,
                                                      Color cu,
                                                      Color cv) const {
  // Unassigned endpoints take their best case so partially colored layouts
  // are charged optimistically.
  if (k_ > 2 && spec_ && spec_->pairOverlay) {
    const int iu = colorIndex(cu);
    const int iv = colorIndex(cv);
    std::int64_t best = -1;
    for (int a = 0; a < k_; ++a) {
      if (iu >= 0 && a != iu) continue;
      for (int b = 0; b < k_; ++b) {
        if (iv >= 0 && b != iv) continue;
        std::int64_t c = spec_->pairOverlay(e.cls, a, b);
        if (spec_->pairCutRisk && spec_->pairCutRisk(e.cls, a, b)) {
          c += kCutRiskPenalty;
        }
        if (best < 0 || c < best) best = c;
      }
    }
    return best < 0 ? 0 : best;
  }
  std::int64_t best = -1;
  for (Color a : {Color::Core, Color::Second}) {
    if (cu != Color::Unassigned && a != cu) continue;
    for (Color b : {Color::Core, Color::Second}) {
      if (cv != Color::Unassigned && b != cv) continue;
      const int i = assignmentIndex(a, b);
      std::int64_t c = e.cls.overlay[i];
      if (e.cls.cutRisk[i]) c += kCutRiskPenalty;
      if (best < 0 || c < best) best = c;
    }
  }
  return best < 0 ? 0 : best;
}

std::int64_t OverlayConstraintGraph::edgeCost(const OcgEdge& e) const {
  return costOfAssignment(e, classColorOf(e.u), classColorOf(e.v));
}

int OverlayConstraintGraph::edgeOverlayUnits(const OcgEdge& e) const {
  const Color cu = classColorOf(e.u);
  const Color cv = classColorOf(e.v);
  if (cu == Color::Unassigned || cv == Color::Unassigned) {
    return int(std::min<std::int64_t>(costOfAssignment(e, cu, cv), kHardCost));
  }
  if (k_ > 2 && spec_ && spec_->pairOverlay) {
    return int(std::min<std::int64_t>(
        spec_->pairOverlay(e.cls, colorIndex(cu), colorIndex(cv)), kHardCost));
  }
  return e.cls.overlay[assignmentIndex(cu, cv)];
}

Color OverlayConstraintGraph::pseudoColor(NetId net) {
  const std::uint32_t v = vertexFor(net);
  auto [root, par] = hard_.find(v);
  // Evaluate every root color for the WHOLE hard class of v: cross-class
  // edges use the neighbor's current color; intra-class edges (fixed
  // relative parity) still depend on the root color for asymmetric rules.
  std::int64_t cost[3] = {0, 0, 0};
  auto membersIt = classMembers_.find(std::uint32_t(root));
  const std::vector<std::uint32_t> fallback{v};
  const std::vector<std::uint32_t>& members =
      membersIt != classMembers_.end() ? membersIt->second : fallback;
  for (std::uint32_t w : members) {
    auto [rw, pw] = hard_.find(w);
    for (std::uint32_t ei : adj_[w]) {
      const OcgEdge& e = edges_[ei];
      if (!e.alive) continue;
      const std::uint32_t other = (e.u == w) ? e.v : e.u;
      auto [ro, po] = hard_.find(other);
      if (ro == root && other < w) continue;  // count intra edges once
      for (int rc = 0; rc < k_; ++rc) {
        const Color rootColor = colorFromIndex(rc);
        const Color wColor = pw ? flippedColor(rootColor) : rootColor;
        const Color otherColor =
            (ro == root) ? (po ? flippedColor(rootColor) : rootColor)
                         : classColorOf(other);
        const Color cu = (e.u == w) ? wColor : otherColor;
        const Color cv = (e.u == w) ? otherColor : wColor;
        cost[rc] += costOfAssignment(e, cu, cv);
      }
    }
  }
  // Per-vertex priors (added for every member under its implied color).
  for (std::uint32_t w : members) {
    auto [rw, pw] = hard_.find(w);
    (void)rw;
    for (int rc = 0; rc < k_; ++rc) {
      const Color rootColor = colorFromIndex(rc);
      const Color wColor = pw ? flippedColor(rootColor) : rootColor;
      cost[rc] += priorOf(w, wColor);
    }
  }
  // First index wins ties: for k == 2 this is the historical
  // "cost[0] <= cost[1] ? Core : Second" rule bit for bit.
  int bestIdx = 0;
  for (int rc = 1; rc < k_; ++rc) {
    if (cost[rc] < cost[bestIdx]) bestIdx = rc;
  }
  const Color rootColor = colorFromIndex(bestIdx);
  classColor_[std::uint32_t(root)] = rootColor;
  markDirty(v);
  return par ? flippedColor(rootColor) : rootColor;
}

Color OverlayConstraintGraph::firstFitColor(NetId net) {
  const std::uint32_t v = vertexFor(net);
  // A hard classmate routed earlier already determines this net's color;
  // first-fit never revisits fixed decisions.
  const Color fixed = classColorOf(v);
  if (fixed != Color::Unassigned) return fixed;
  for (int ci = 0; ci < k_; ++ci) {
    const Color c = colorFromIndex(ci);
    setColor(net, c);
    bool legal = true;
    for (std::uint32_t ei : adj_[v]) {
      const OcgEdge& e = edges_[ei];
      const Color cu = classColorOf(e.u);
      const Color cv = classColorOf(e.v);
      if (cu == Color::Unassigned || cv == Color::Unassigned) continue;
      const std::int64_t overlay =
          (k_ > 2 && spec_ && spec_->pairOverlay)
              ? spec_->pairOverlay(e.cls, colorIndex(cu), colorIndex(cv))
              : e.cls.overlay[assignmentIndex(cu, cv)];
      legal &= overlay < kHardCost;
    }
    if (legal) return c;
  }
  setColor(net, Color::Core);  // nothing legal: first-fit falls back
  return Color::Core;
}

void OverlayConstraintGraph::setPrior(NetId net, std::int64_t corePrior,
                                      std::int64_t secondPrior) {
  const std::uint32_t v = vertexFor(net);
  markDirty(v);
  if (corePrior == 0 && secondPrior == 0) {
    priors_.erase(v);
  } else {
    priors_[v] = {corePrior, secondPrior};
  }
}

std::int64_t OverlayConstraintGraph::priorOf(std::uint32_t vertex,
                                             Color c) const {
  auto it = priors_.find(vertex);
  if (it == priors_.end()) return 0;
  const int i = colorIndex(c);
  if (i < 0 || i > 1) return 0;  // only Core/Second carry priors
  return it->second[i];
}

std::int64_t OverlayConstraintGraph::totalOverlayUnits() const {
  std::int64_t total = 0;
  for (const OcgEdge& e : edges_) {
    if (e.alive) total += edgeOverlayUnits(e);
  }
  return total;
}

std::int64_t OverlayConstraintGraph::overlayUnitsOfNet(NetId net) const {
  auto it = idx_.find(net);
  if (it == idx_.end()) return 0;
  std::int64_t total = 0;
  for (std::uint32_t ei : adj_[it->second]) {
    const OcgEdge& e = edges_[ei];
    if (e.alive) total += edgeOverlayUnits(e);
  }
  return total;
}

std::int64_t OverlayConstraintGraph::classOverlayUnits(NetId net) const {
  auto it = idx_.find(net);
  if (it == idx_.end()) return 0;
  auto [root, par] = hard_.find(it->second);
  (void)par;
  auto membersIt = classMembers_.find(std::uint32_t(root));
  if (membersIt == classMembers_.end()) return overlayUnitsOfNet(net);
  std::vector<std::uint32_t> eids;
  for (std::uint32_t w : membersIt->second) {
    eids.insert(eids.end(), adj_[w].begin(), adj_[w].end());
  }
  std::sort(eids.begin(), eids.end());
  eids.erase(std::unique(eids.begin(), eids.end()), eids.end());
  std::int64_t total = 0;
  for (std::uint32_t ei : eids) {
    const OcgEdge& e = edges_[ei];
    if (e.alive) total += edgeOverlayUnits(e);
  }
  return total;
}

int OverlayConstraintGraph::cutRiskCount() const {
  int n = 0;
  for (const OcgEdge& e : edges_) {
    if (!e.alive) continue;
    const Color cu = classColorOf(e.u);
    const Color cv = classColorOf(e.v);
    if (cu == Color::Unassigned || cv == Color::Unassigned) continue;
    if (k_ > 2 && spec_ && spec_->pairCutRisk) {
      if (spec_->pairCutRisk(e.cls, colorIndex(cu), colorIndex(cv))) ++n;
      continue;
    }
    if (e.cls.cutRisk[assignmentIndex(cu, cv)]) ++n;
  }
  return n;
}

std::pair<std::uint32_t, std::uint8_t> OverlayConstraintGraph::hardClassOf(
    std::uint32_t v) const {
  auto [root, par] = hard_.find(v);
  return {std::uint32_t(root), par};
}

void OverlayConstraintGraph::applyColors(const std::vector<Color>& colors) {
  assert(colors.size() <= nets_.size());
  for (std::uint32_t v = 0; v < colors.size(); ++v) {
    if (colors[v] == Color::Unassigned) continue;
    setVertexColor(v, colors[v]);
  }
}

const std::vector<std::uint32_t>&
OverlayConstraintGraph::closeDirtyComponents() {
  // Breadth-first over alive edges (adj_ holds no dead ones); the list is
  // its own queue and the flags its visited set.
  for (std::size_t i = 0; i < dirtyList_.size(); ++i) {
    for (std::uint32_t ei : adj_[dirtyList_[i]]) {
      markDirty(edges_[ei].u);
      markDirty(edges_[ei].v);
    }
  }
  std::sort(dirtyList_.begin(), dirtyList_.end());
  return dirtyList_;
}

void OverlayConstraintGraph::clearDirty() {
  for (std::uint32_t v : dirtyList_) dirty_[v] = 0;
  dirtyList_.clear();
}

}  // namespace sadp
