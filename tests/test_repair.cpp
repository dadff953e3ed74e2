// Tests for the post-routing violation-repair machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/decompose.hpp"
#include "trace/metrics.hpp"

namespace sadp {
namespace {

TEST(Repair, ReducesOrHoldsViolations) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.08));
  // Route without repair, measure, then repair explicitly.
  RoutingGrid grid = inst.grid;
  RouterOptions o;
  o.enableRepair = false;
  OverlayAwareRouter router(grid, inst.netlist, o);
  router.run();
  int before = 0;
  for (int l = 0; l < grid.layers(); ++l) {
    const LayerDecomposition d = router.decompose(l);
    before += d.report.cutConflicts() + d.report.hardOverlays;
  }
  const int after = router.repairViolations();
  EXPECT_LE(after, before);
}

TEST(Repair, KeepsRoutedPathsConsistent) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.08));
  RoutingGrid grid = inst.grid;
  OverlayAwareRouter router(grid, inst.netlist);
  const RoutingStats s = router.run();  // includes repair passes
  // Occupancy/bookkeeping invariants must survive reroutes and rollbacks.
  std::int64_t wl = 0;
  int vias = 0, routed = 0;
  for (const Net& n : inst.netlist.nets) {
    const NetRouteState& st = router.netStates()[n.id];
    if (!st.routed) continue;
    ++routed;
    for (const GridNode& node : st.path) {
      ASSERT_EQ(grid.owner(node), n.id) << n.name;
    }
    for (std::size_t i = 1; i < st.path.size(); ++i) {
      if (st.path[i].layer != st.path[i - 1].layer) {
        ++vias;
      } else {
        ++wl;
      }
    }
  }
  EXPECT_EQ(routed, s.routedNets);
  EXPECT_EQ(wl, s.wirelength);
  EXPECT_EQ(vias, s.vias);
}

TEST(Repair, SacrificeModeNeverIncreasesViolations) {
  const BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test2").scaled(0.06));
  RoutingGrid gridA = inst.grid;
  OverlayAwareRouter base(gridA, inst.netlist);
  base.run();
  int baseViol = 0;
  for (int l = 0; l < gridA.layers(); ++l) {
    const LayerDecomposition d = base.decompose(l);
    baseViol += d.report.cutConflicts() + d.report.hardOverlays;
  }

  RoutingGrid gridB = inst.grid;
  RouterOptions o;
  o.sacrificeForZeroConflicts = true;
  OverlayAwareRouter sac(gridB, inst.netlist, o);
  sac.run();
  int sacViol = 0;
  for (int l = 0; l < gridB.layers(); ++l) {
    const LayerDecomposition d = sac.decompose(l);
    sacViol += d.report.cutConflicts() + d.report.hardOverlays;
  }
  EXPECT_LE(sacViol, baseViol);
}

TEST(Repair, NoViolationsMeansNoChanges) {
  // A sparse layout routes clean; repair must be a no-op.
  RoutingGrid grid(40, 40, 3, DesignRules{});
  Netlist nl;
  nl.add("a", Pin{{{2, 10, 0}}}, Pin{{{30, 10, 0}}});
  nl.add("b", Pin{{{2, 20, 0}}}, Pin{{{30, 20, 0}}});
  OverlayAwareRouter router(grid, nl);
  router.run();
  const auto pathsBefore = router.netStates();
  EXPECT_EQ(router.repairViolations(), 0);
  for (std::size_t i = 0; i < pathsBefore.size(); ++i) {
    EXPECT_EQ(pathsBefore[i].path, router.netStates()[i].path);
  }
}

// ---- Decompose only what a verdict reads (DESIGN.md §5.9) -----------------

/// Track box of a net's fragments on a layer, inflated by `by` tracks.
Rect fragmentWindow(const std::vector<Fragment>& frags, Track by) {
  Rect w;
  for (const Fragment& f : frags) {
    w = w.unionWith(Rect{f.xlo, f.ylo, f.xhi, f.yhi});
  }
  return w.inflated(by);
}

/// The cut check before its baseline became lazy: the window without the
/// net is decomposed first, then the probes. Reference for checkLayerCuts.
int eagerLayerCuts(OverlayModel& model, NetId net, int layer,
                   const DesignRules& rules, Nm windowTracks) {
  const std::vector<Fragment> own = model.netFragments(net, layer);
  if (own.empty()) return 0;
  const Nm pitch = rules.pitch();
  std::vector<Rect> ownNm;
  for (const Fragment& f : own) {
    ownNm.push_back(
        Rect{f.xlo * pitch, f.ylo * pitch, f.xhi * pitch, f.yhi * pitch}
            .inflated(2 * pitch));
  }
  const Rect window = fragmentWindow(own, Track(windowTracks));
  OverlayConstraintGraph& g = model.graph(layer);
  auto nearOwn = [&](NetId skip) {
    const LayerDecomposition d = decomposeLayer(
        model.coloredFragmentsInWindow(layer, window, skip), rules);
    return int(std::count_if(
        d.conflictBoxesNm.begin(), d.conflictBoxesNm.end(),
        [&](const Rect& box) {
          return std::any_of(ownNm.begin(), ownNm.end(),
                             [&](const Rect& o) { return o.overlaps(box); });
        }));
  };
  const int baseline = nearOwn(net);
  auto conflictsUnder = [&](Color c) {
    g.setColor(net, c);
    return std::max(0, nearOwn(kInvalidNet) - baseline);
  };
  const Color base = model.maskColor(net, layer);
  int conflicts = conflictsUnder(base);
  if (conflicts > 0) {
    Color best = base;
    for (int ci = 0; ci < g.colorCount() && conflicts > 0; ++ci) {
      const Color alt = colorFromIndex(ci);
      if (alt == base) continue;
      const int altConflicts = conflictsUnder(alt);
      if (altConflicts < conflicts) {
        conflicts = altConflicts;
        best = alt;
      }
    }
    g.setColor(net, best);
  }
  return conflicts;
}

/// Test1 at 6% density, routed without repair into `ctx`.
struct RoutedTest1 {
  BenchmarkInstance inst = makeBenchmark(paperBenchmark("Test1").scaled(0.06));
  OverlayAwareRouter router;

  explicit RoutedTest1(RunContext& ctx)
      : router(inst.grid, inst.netlist, noRepair(), &ctx) {
    router.run();
  }
  static RouterOptions noRepair() {
    RouterOptions o;
    o.enableRepair = false;
    return o;
  }
};

TEST(WindowMeter, RepeatedWindowDecomposesOnce) {
  RunContext ctx;
  RunContext::Scope scope(ctx);
  RoutedTest1 t(ctx);
  Counter& calls = ctx.metrics().counter("decompose.calls");
  Counter& reuses = ctx.metrics().counter("repair.window_reuses");
  const Rect window =
      fragmentWindow(t.router.model().netFragments(0, 0), 8);
  ASSERT_FALSE(window.empty());

  const std::int64_t c0 = calls.value();
  const int v = t.router.windowViolations(0, window);
  EXPECT_EQ(calls.value(), c0 + 1);
  EXPECT_EQ(t.router.windowViolations(0, window), v);
  EXPECT_EQ(calls.value(), c0 + 1);
  EXPECT_EQ(reuses.value(), 1);
  // The meter keeps one window per layer: measuring another layer in
  // between does not displace layer 0's.
  t.router.windowViolations(1, window);
  EXPECT_EQ(calls.value(), c0 + 2);
  EXPECT_EQ(t.router.windowViolations(0, window), v);
  EXPECT_EQ(calls.value(), c0 + 2);
  EXPECT_EQ(reuses.value(), 2);
}

TEST(WindowMeter, RecolorInsideWindowDecomposesAgain) {
  RunContext ctx;
  RunContext::Scope scope(ctx);
  RoutedTest1 t(ctx);
  Counter& calls = ctx.metrics().counter("decompose.calls");
  OverlayModel& model = t.router.model();
  const Rect window = fragmentWindow(model.netFragments(0, 0), 8);
  const int v = t.router.windowViolations(0, window);
  const Color base = model.maskColor(0, 0);

  std::int64_t c = calls.value();
  model.graph(0).setColor(0, flippedColor(base));
  const int flipped = t.router.windowViolations(0, window);
  EXPECT_EQ(calls.value(), c + 1);
  // The count is that of a fresh decomposition of the recolored window.
  const LayerDecomposition fresh = decomposeLayer(
      model.coloredFragmentsInWindow(0, window), t.inst.grid.rules());
  EXPECT_EQ(flipped, fresh.report.cutConflicts() + fresh.report.hardOverlays);

  c = calls.value();
  model.graph(0).setColor(0, base);  // back to the first list
  EXPECT_EQ(t.router.windowViolations(0, window), v);
  EXPECT_EQ(calls.value(), c + 1);  // only the last list is kept
}

TEST(CutCheck, CleanNetDecomposesOncePerLayer) {
  RunContext ctx;
  RunContext::Scope scope(ctx);
  RoutingGrid grid(40, 40, 3, DesignRules{});
  Netlist nl;
  nl.add("a", Pin{{{2, 10, 0}}}, Pin{{{30, 25, 0}}});
  RouterOptions o;
  o.enableRepair = false;
  OverlayAwareRouter router(grid, nl, o, &ctx);
  ASSERT_EQ(router.run().routedNets, 1);
  int layersUsed = 0;
  for (int l = 0; l < grid.layers(); ++l) {
    layersUsed += !router.model().netFragments(0, l).empty();
  }
  EXPECT_GE(layersUsed, 2);
  // One probe per occupied layer; no baseline, since nothing is near.
  EXPECT_EQ(ctx.metrics().counter("decompose.calls").value(), layersUsed);
  EXPECT_EQ(ctx.metrics().counter("cut_check.baseline_skips").value(),
            layersUsed);
  EXPECT_EQ(ctx.metrics().counter("router.cut_rejects").value(), 0);
}

// The lazy baseline must read the window as it was before the first probe.
// Probing an Unassigned net colors its whole hard class, so every checked
// class is reset to Unassigned first: an odd-parity classmate in the window
// then prints Core in the baseline but Second after the probe. Two models
// built from the same routes run the lazy check and the eager reference in
// lockstep; verdicts, colors and final masks must agree.
TEST(CutCheck, LazyBaselineMatchesEagerOnUnassignedClasses) {
  RunContext ctx;
  RunContext::Scope scope(ctx);
  const RoutedTest1 t(ctx);
  const RoutingGrid& grid = t.inst.grid;
  const DesignRules& rules = grid.rules();
  const Nm windowTracks = RouterOptions{}.cutCheckWindowTracks;

  OverlayModel lazy(grid.layers(), grid.width(), grid.height());
  OverlayModel eager(grid.layers(), grid.width(), grid.height());
  for (const Net& n : t.inst.netlist.nets) {
    const NetRouteState& st = t.router.netStates()[n.id];
    if (!st.routed) continue;
    for (OverlayModel* m : {&lazy, &eager}) {
      m->addNet(n.id, st.path);
      m->pseudoColor(n.id);
    }
  }

  int rejects = 0, skips = 0, recoloredWindows = 0;
  for (const Net& n : t.inst.netlist.nets) {
    for (int l = 0; l < grid.layers(); ++l) {
      const std::vector<Fragment> own = lazy.netFragments(n.id, l);
      if (own.empty() || lazy.graph(l).findVertex(n.id) < 0) continue;
      lazy.graph(l).setColor(n.id, Color::Unassigned);
      eager.graph(l).setColor(n.id, Color::Unassigned);
      const Rect window = fragmentWindow(own, Track(windowTracks));
      const std::vector<ColoredFragment> before =
          lazy.coloredFragmentsInWindow(l, window, n.id);

      const LayerCutCheck c =
          checkLayerCuts(lazy, n.id, l, rules, windowTracks, {});
      const int reference = eagerLayerCuts(eager, n.id, l, rules,
                                           windowTracks);
      ASSERT_EQ(c.conflicts, reference) << "net " << n.id << " layer " << l;
      rejects += c.conflicts > 0;
      skips += c.baselineSkipped;
      recoloredWindows +=
          lazy.coloredFragmentsInWindow(l, window, n.id) != before;
      const OverlayConstraintGraph& gl = lazy.graph(l);
      for (std::uint32_t v = 0; v < gl.vertexCount(); ++v) {
        ASSERT_EQ(gl.colorOf(gl.netOf(v)), eager.graph(l).colorOf(gl.netOf(v)))
            << "net " << gl.netOf(v) << " after checking " << n.id;
      }
    }
  }
  // The fixture exercises both branches and the recolored-classmate case.
  EXPECT_GT(rejects, 0);
  EXPECT_GT(skips, 0);
  EXPECT_GT(recoloredWindows, 0);
  const Rect chip{0, 0, grid.width(), grid.height()};
  for (int l = 0; l < grid.layers(); ++l) {
    EXPECT_EQ(
        maskFingerprint(
            decomposeLayer(lazy.coloredFragmentsInWindow(l, chip), rules)),
        maskFingerprint(
            decomposeLayer(eager.coloredFragmentsInWindow(l, chip), rules)))
        << "layer " << l;
  }
}

}  // namespace
}  // namespace sadp
