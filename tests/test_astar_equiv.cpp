// Fuzz equivalence suite for the fixed-point A* core (DESIGN.md §5.9).
//
// The bucket (Dial) open list and the integer binary heap share one cost
// model and, by construction, one pop order -- LIFO within equal f equals
// ordering by (f, push sequence descending). The engine picks the heap
// only from its input, so these tests force it metamorphically: a
// negative or huge penalty on a cell owned by another net is never read
// as a step cost (A* never steps there) but disqualifies the bucket
// queue. Over randomized grids, obstacle fields, penalty fields and T2b
// marks the two runs must agree byte for byte: identical paths (node by
// node), costs, via counts, expansion counts, and metric counter values,
// route after route on a warm engine.
//
// A test-local textbook A* (no entry-penalty floor, same cost model and
// tie-break) is the oracle for the floor: with the target inside a
// 150-per-cell avoid box the engine must return the oracle's path, cost
// and vias with no more expansions, and with several targets (no floor)
// it must match the oracle exactly.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "route/astar.hpp"
#include "run/run_context.hpp"

namespace sadp {
namespace {

struct RouteOutcome {
  bool routed = false;
  std::vector<GridNode> path;
  double cost = 0.0;
  int vias = 0;
  std::int64_t expansions = 0;
  std::int64_t ctrRoutes = 0;
  std::int64_t ctrExpansions = 0;
  std::int64_t ctrPushes = 0;
};

bool operator==(const RouteOutcome& a, const RouteOutcome& b) {
  return a.routed == b.routed && a.path == b.path && a.cost == b.cost &&
         a.vias == b.vias && a.expansions == b.expansions &&
         a.ctrRoutes == b.ctrRoutes &&
         a.ctrExpansions == b.ctrExpansions && a.ctrPushes == b.ctrPushes;
}

struct Scenario {
  RoutingGrid grid;
  std::vector<GridNode> sources;
  std::vector<GridNode> targets;
  AStarParams params;
  PenaltyField extra;
  T2bField t2b;
  bool useExtra = false;
  bool useT2b = false;
};

/// Randomized routing scenario: obstacles, multi-source/multi-target pin
/// sets, quantizable cost weights, and optional (nonnegative) penalty and
/// T2b fields, so the engine searches it with the bucket queue.
Scenario makeScenario(std::mt19937& rng) {
  std::uniform_int_distribution<int> dim(8, 24);
  std::uniform_int_distribution<int> layerCount(1, 3);
  const Track w = Track(dim(rng));
  const Track h = Track(dim(rng));
  const int layers = layerCount(rng);
  Scenario s{RoutingGrid(w, h, layers, DesignRules{}),
             {},
             {},
             AStarParams{},
             PenaltyField{RoutingGrid(w, h, layers, DesignRules{})},
             T2bField{RoutingGrid(w, h, layers, DesignRules{})}};
  s.extra = PenaltyField(s.grid);
  s.t2b = T2bField(s.grid);

  std::uniform_int_distribution<int> x(0, w - 1);
  std::uniform_int_distribution<int> y(0, h - 1);
  std::uniform_int_distribution<int> l(0, layers - 1);
  auto node = [&] {
    return GridNode{Track(x(rng)), Track(y(rng)), std::int16_t(l(rng))};
  };

  // Obstacles owned by another net (the routed net is net 1).
  std::uniform_int_distribution<int> obstacleCount(0, int(w) * int(h) / 4);
  const int obstacles = obstacleCount(rng);
  for (int i = 0; i < obstacles; ++i) s.grid.occupy(node(), 99);

  std::uniform_int_distribution<int> pins(1, 4);
  const int nSrc = pins(rng);
  const int nTgt = pins(rng);
  for (int i = 0; i < nSrc; ++i) s.sources.push_back(node());
  for (int i = 0; i < nTgt; ++i) s.targets.push_back(node());

  // Dyadic weights: exactly representable at scale <= 2^3, and
  // wrongWay >= 1 so the bucket mode's consistency precondition holds.
  std::uniform_int_distribution<int> eighths(1, 24);
  std::uniform_int_distribution<int> wrongEighths(8, 24);
  s.params.alpha = eighths(rng) / 8.0;
  s.params.beta = eighths(rng) / 8.0;
  s.params.gamma = eighths(rng) / 8.0;
  s.params.wrongWay = wrongEighths(rng) / 8.0;

  std::bernoulli_distribution coin(0.5);
  std::uniform_real_distribution<float> pen(0.0f, 12.0f);
  std::uniform_int_distribution<int> penCount(0, 40);
  s.useExtra = coin(rng);
  if (s.useExtra) {
    const int n = penCount(rng);
    for (int i = 0; i < n; ++i) s.extra.add(node(), pen(rng));
  }
  s.useT2b = coin(rng);
  if (s.useT2b) {
    const int n = penCount(rng);
    for (int i = 0; i < n; ++i) {
      s.t2b.horizontalEntry.add(node(), pen(rng));
      s.t2b.verticalEntry.add(node(), pen(rng));
    }
  }
  return s;
}

/// Runs the scenario's route sequence with a fresh RunContext,
/// snapshotting results and metric counters.
std::vector<RouteOutcome> runScenario(const Scenario& s) {
  RunContext ctx;
  RunContext::Scope scope(ctx);
  AStarEngine engine(s.grid, &ctx);
  const PenaltyField* extra = s.useExtra ? &s.extra : nullptr;
  const T2bField* t2b = s.useT2b ? &s.t2b : nullptr;

  std::vector<RouteOutcome> out;
  // Route twice (warm engine, reused epoch-stamped arrays), then once
  // with sources/targets swapped for a different search shape.
  for (int pass = 0; pass < 3; ++pass) {
    const auto& src = pass == 2 ? s.targets : s.sources;
    const auto& tgt = pass == 2 ? s.sources : s.targets;
    auto res = engine.route(1, src, tgt, s.params, extra, t2b);
    RouteOutcome o;
    o.routed = res.has_value();
    if (res) {
      o.path = res->path;
      o.cost = res->cost;
      o.vias = res->vias;
      o.expansions = res->expansions;
    }
    o.ctrRoutes = ctx.metrics().counter("astar.routes").value();
    o.ctrExpansions = ctx.metrics().counter("astar.expansions").value();
    o.ctrPushes = ctx.metrics().counter("astar.heap_pushes").value();
    out.push_back(std::move(o));
  }
  return out;
}

/// How forceHeap() disqualifies the bucket queue.
enum class HeapTrigger {
  NegativePenalty,  ///< a negative cell in the rip-up field
  HugePenalty,      ///< an f span far beyond 2^18 buckets
  NegativeT2b,      ///< a negative cell in a T2b field
};

/// Metamorphic twin of s that the engine must search with the heap: the
/// trigger value sits on `blocked`, a cell owned by net 99, which the
/// routed net 1 never steps onto, so no step cost ever reads it.
Scenario forceHeap(const Scenario& s, const GridNode& blocked,
                   HeapTrigger trigger) {
  Scenario t = s;
  switch (trigger) {
    case HeapTrigger::NegativePenalty:
      t.useExtra = true;
      t.extra.add(blocked, -1.0f - t.extra.at(blocked));
      break;
    case HeapTrigger::HugePenalty:
      t.useExtra = true;
      t.extra.add(blocked, 1.0e6f);
      break;
    case HeapTrigger::NegativeT2b:
      t.useT2b = true;
      t.t2b.verticalEntry.add(blocked,
                              -1.0f - t.t2b.verticalEntry.at(blocked));
      break;
  }
  return t;
}

std::string describe(const RouteOutcome& o) {
  return "(cost=" + std::to_string(o.cost) +
         ", exp=" + std::to_string(o.expansions) +
         ", pushes=" + std::to_string(o.ctrPushes) +
         ", len=" + std::to_string(o.path.size()) + ")";
}

TEST(AStarEquiv, BucketMatchesHeapByteForByte) {
  std::mt19937 rng(20140601);  // DAC'14 seed; deterministic suite
  for (int iter = 0; iter < 150; ++iter) {
    Scenario s = makeScenario(rng);
    // The blocked cell carrying the heap trigger; occupied before the
    // plain run too, so both runs search the same grid.
    std::uniform_int_distribution<int> x(0, s.grid.width() - 1);
    std::uniform_int_distribution<int> y(0, s.grid.height() - 1);
    std::uniform_int_distribution<int> l(0, s.grid.layers() - 1);
    const GridNode blocked{Track(x(rng)), Track(y(rng)),
                           std::int16_t(l(rng))};
    s.grid.occupy(blocked, 99);
    const auto trigger = HeapTrigger(iter % 3);
    const Scenario t = forceHeap(s, blocked, trigger);
    if (trigger == HeapTrigger::NegativeT2b) {
      ASSERT_TRUE(t.t2b.verticalEntry.hasNegative());
    } else if (trigger == HeapTrigger::NegativePenalty) {
      ASSERT_TRUE(t.extra.hasNegative());
    }

    const auto bucket = runScenario(s);
    const auto heap = runScenario(t);
    ASSERT_EQ(bucket.size(), heap.size());
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      EXPECT_TRUE(bucket[i] == heap[i])
          << "iter " << iter << " pass " << i << " trigger "
          << int(trigger) << ": bucket" << describe(bucket[i]) << " vs heap"
          << describe(heap[i]);
    }
  }
}

/// Textbook A* over the engine's fixed-point cost model (eq. (5) step
/// cost, Manhattan heuristic, h = 0 past eight targets) with a binary heap
/// ordered by (f, push sequence descending) and no entry-penalty floor:
/// the search the engine ran before the floor, written independently.
RouteOutcome oracleRoute(const RoutingGrid& g, NetId net,
                         const std::vector<GridNode>& sources,
                         const std::vector<GridNode>& targets,
                         const AStarParams& p, const PenaltyField* extra,
                         const T2bField* t2b) {
  const FixedCostScale fs = deriveFixedCostScale(p);
  const double scale = double(std::int64_t(1) << fs.shift);
  auto quant = [&](double v) { return std::llround(v * scale); };
  auto passable = [&](const GridNode& n) {
    return g.owner(n) == kInvalidNet || g.owner(n) == net;
  };
  const bool useH = targets.size() <= 8;
  auto h = [&](const GridNode& n) -> std::int64_t {
    if (!useH) return 0;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const GridNode& t : targets) {
      best = std::min<std::int64_t>(
          best, fs.alphaQ * (std::abs(n.x - t.x) + std::abs(n.y - t.y)) +
                    fs.betaQ * std::abs(n.layer - t.layer));
    }
    return best;
  };
  std::vector<char> isTarget(g.nodeCount(), 0);
  for (const GridNode& t : targets) {
    if (g.inBounds(t)) isTarget[g.index(t)] = 1;
  }

  struct Entry {
    std::int64_t f, g;
    GridNode node;
    std::int64_t seq;
  };
  auto after = [](const Entry& a, const Entry& b) {
    return a.f != b.f ? a.f > b.f : a.seq < b.seq;
  };
  std::vector<Entry> open;
  std::int64_t seq = 0;
  std::vector<std::int64_t> best(g.nodeCount(),
                                 std::numeric_limits<std::int64_t>::max());
  std::vector<GridNode> parent(g.nodeCount());
  std::vector<char> hasParent(g.nodeCount(), 0);
  auto push = [&](std::int64_t f, std::int64_t gq, const GridNode& n) {
    open.push_back({f, gq, n, seq++});
    std::push_heap(open.begin(), open.end(), after);
  };
  for (const GridNode& s : sources) {
    if (!g.inBounds(s) || !passable(s)) continue;
    best[g.index(s)] = 0;
    push(h(s), 0, s);
  }

  RouteOutcome o;
  while (!open.empty()) {
    std::pop_heap(open.begin(), open.end(), after);
    const Entry top = open.back();
    open.pop_back();
    if (top.g > best[g.index(top.node)]) continue;
    ++o.expansions;
    if (isTarget[g.index(top.node)]) {
      o.routed = true;
      o.cost = double(top.g) / scale;
      for (GridNode n = top.node;; n = parent[g.index(n)]) {
        o.path.push_back(n);
        if (!hasParent[g.index(n)]) break;
      }
      std::reverse(o.path.begin(), o.path.end());
      for (std::size_t i = 1; i < o.path.size(); ++i) {
        o.vias += o.path[i].layer != o.path[i - 1].layer;
      }
      return o;
    }
    const GridNode cur = top.node;
    const GridNode moves[6] = {{Track(cur.x + 1), cur.y, cur.layer},
                               {Track(cur.x - 1), cur.y, cur.layer},
                               {cur.x, Track(cur.y + 1), cur.layer},
                               {cur.x, Track(cur.y - 1), cur.layer},
                               {cur.x, cur.y, std::int16_t(cur.layer + 1)},
                               {cur.x, cur.y, std::int16_t(cur.layer - 1)}};
    for (int m = 0; m < 6; ++m) {
      const GridNode& nxt = moves[m];
      if (!g.inBounds(nxt) || !passable(nxt)) continue;
      std::int64_t step;
      if (m >= 4) {
        step = fs.betaQ;
      } else {
        const bool horizontal = m < 2;
        step = (g.preferredDir(cur.layer) == Orient::Horizontal) == horizontal
                   ? fs.alphaQ
                   : fs.wrongQ;
        if (t2b != nullptr) {
          const PenaltyField& f =
              horizontal ? t2b->horizontalEntry : t2b->verticalEntry;
          step += quant(p.gamma * double(f.at(nxt)));
        }
      }
      if (extra != nullptr) step += quant(double(extra->at(nxt)));
      const std::size_t ni = g.index(nxt);
      const std::int64_t gq = top.g + step;
      if (gq < best[ni]) {
        best[ni] = gq;
        parent[ni] = cur;
        hasParent[ni] = 1;
        push(gq + h(nxt), gq, nxt);
      }
    }
  }
  return o;
}

/// Stamps a repair-style avoid box (25 x kRipUpPenalty = 150 per cell) of
/// radius r around n on n's layer.
void stampAvoidBox(PenaltyField& f, const RoutingGrid& g, const GridNode& n,
                   int r) {
  for (int dy = -r; dy <= r; ++dy) {
    for (int dx = -r; dx <= r; ++dx) {
      const GridNode c{Track(n.x + dx), Track(n.y + dy), n.layer};
      if (g.inBounds(c)) f.add(c, 150.0f);
    }
  }
}

TEST(AStarEquiv, EntryPenaltyFloorMatchesTextbookOracle) {
  std::mt19937 rng(20140602);
  std::bernoulli_distribution coin(0.5);
  std::uniform_int_distribution<int> radius(0, 3);
  std::int64_t singleEngine = 0;
  std::int64_t singleOracle = 0;
  int singleRouted = 0;
  for (int iter = 0; iter < 300; ++iter) {
    Scenario s = makeScenario(rng);
    // Alternate single-target (floor applies) and multi-target (guarded).
    const bool single = iter % 2 == 0;
    if (single) {
      s.targets.resize(1);
    } else if (s.targets.size() == 1) {
      s.targets.push_back(s.sources.front());
    }
    s.useExtra = true;
    stampAvoidBox(s.extra, s.grid, s.targets.front(), radius(rng));
    if (coin(rng)) stampAvoidBox(s.extra, s.grid, s.sources.front(), 2);
    const T2bField* t2b = s.useT2b ? &s.t2b : nullptr;

    RunContext ctx;
    RunContext::Scope scope(ctx);
    AStarEngine engine(s.grid, &ctx);
    const auto res =
        engine.route(1, s.sources, s.targets, s.params, &s.extra, t2b);
    const RouteOutcome want =
        oracleRoute(s.grid, 1, s.sources, s.targets, s.params, &s.extra, t2b);
    ASSERT_EQ(res.has_value(), want.routed) << "iter " << iter;
    if (!res) continue;
    EXPECT_EQ(res->path, want.path) << "iter " << iter;
    EXPECT_EQ(res->cost, want.cost) << "iter " << iter;
    EXPECT_EQ(res->vias, want.vias) << "iter " << iter;
    if (single) {
      EXPECT_LE(res->expansions, want.expansions) << "iter " << iter;
      singleEngine += res->expansions;
      singleOracle += want.expansions;
      ++singleRouted;
    } else {
      EXPECT_EQ(res->expansions, want.expansions)
          << "iter " << iter << ": multi-target search must not use the floor";
    }
  }
  // The floor must actually bite on this distribution, not just tie.
  ASSERT_GT(singleRouted, 50);
  EXPECT_LT(singleEngine * 2, singleOracle);
}

TEST(AStarEquiv, UnrepresentableWeightsAreRejected) {
  // alpha = 1/3 has no finite power-of-two fixed-point representation,
  // so the engine refuses it.
  RoutingGrid g(16, 16, 2, DesignRules{});
  AStarParams p;
  p.alpha = 1.0 / 3.0;
  EXPECT_FALSE(deriveFixedCostScale(p).ok);
  AStarEngine eng(g);
  EXPECT_THROW(
      eng.route(1, {{GridNode{1, 1, 0}}}, {{GridNode{12, 9, 1}}}, p),
      std::invalid_argument);

  // So is a field whose values overflow the fixed-point range (a float
  // sum past its range reads inf).
  PenaltyField huge(g);
  huge.add(GridNode{5, 5, 0}, std::numeric_limits<float>::infinity());
  EXPECT_THROW(eng.route(1, {{GridNode{1, 1, 0}}}, {{GridNode{12, 9, 1}}},
                         AStarParams{}, &huge),
               std::invalid_argument);

  // The engine stays usable after a rejected call.
  EXPECT_TRUE(eng.route(1, {{GridNode{1, 1, 0}}}, {{GridNode{12, 9, 1}}},
                        AStarParams{})
                  .has_value());
}

TEST(AStarEquiv, FixedScaleDerivation) {
  AStarParams def;  // alpha=1, beta=1, wrongWay=1.5 -> scale 2
  const FixedCostScale fs = deriveFixedCostScale(def);
  ASSERT_TRUE(fs.ok);
  EXPECT_EQ(fs.shift, 1);
  EXPECT_EQ(fs.alphaQ, 2);
  EXPECT_EQ(fs.betaQ, 2);
  EXPECT_EQ(fs.wrongQ, 3);

  AStarParams ints;
  ints.alpha = 2.0;
  ints.beta = 3.0;
  ints.wrongWay = 2.0;
  const FixedCostScale fi = deriveFixedCostScale(ints);
  ASSERT_TRUE(fi.ok);
  EXPECT_EQ(fi.shift, 0);

  AStarParams neg;
  neg.alpha = -1.0;
  EXPECT_FALSE(deriveFixedCostScale(neg).ok);
}

}  // namespace
}  // namespace sadp
