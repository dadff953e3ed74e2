// Cut check and violation repair of OverlayAwareRouter: the windowed
// cut-conflict check that can reject a freshly routed net, and the
// post-route repair loop (color flips, then targeted rip-up & re-route).
// Both decompose only what a verdict reads (DESIGN.md §5.9): the cut
// check's without-the-net baseline only when a probe finds conflict boxes
// near the net, and the repair meter `windowViolations` not at all when a
// layer's window holds the same colored fragments as its last measure.
// Outputs are byte-identical to decomposing every window; `decompose.calls`
// and the MaskCache hit/miss counters are not.
#include "route/router.hpp"

#include <algorithm>
#include <optional>

#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/parallel_for.hpp"

namespace sadp {

LayerCutCheck checkLayerCuts(OverlayModel& model, NetId net, int layer,
                             const DesignRules& rules, Nm windowTracks,
                             const DecomposeOptions& opts) {
  const std::vector<Fragment> own = model.netFragments(net, layer);
  if (own.empty()) return {};
  // Attribution: count only conflict boxes near the net's own metal, and
  // only the increase over the same count without the net (pre-existing
  // conflicts elsewhere must not block it).
  const Nm pitch = rules.pitch();
  Rect window;
  std::vector<Rect> ownNm;
  for (const Fragment& f : own) {
    window = window.unionWith(Rect{f.xlo, f.ylo, f.xhi, f.yhi});
    ownNm.push_back(
        Rect{f.xlo * pitch, f.ylo * pitch, f.xhi * pitch, f.yhi * pitch}
            .inflated(2 * pitch));
  }
  window = window.inflated(windowTracks);
  OverlayConstraintGraph& g = model.graph(layer);
  // Conflict boxes of a window decomposition near the net's metal.
  auto nearOwn = [&](const std::vector<ColoredFragment>& frags) {
    const auto d = decomposeLayerShared(frags, rules, opts);
    return int(std::count_if(
        d->conflictBoxesNm.begin(), d->conflictBoxesNm.end(),
        [&](const Rect& box) {
          return std::any_of(ownNm.begin(), ownNm.end(),
                             [&](const Rect& o) { return o.overlaps(box); });
        }));
  };
  // The baseline feeds only max(0, near - baseline), which is 0 when a
  // probe finds no box near the net, so it is decomposed on demand. Its
  // fragments are taken before the first setColor: probing an Unassigned
  // net colors its whole hard class, which turns an odd-parity classmate
  // in the window from printed-Core to Second.
  const std::vector<ColoredFragment> baselineFrags =
      model.coloredFragmentsInWindow(layer, window, net);
  std::optional<int> baseline;
  auto conflictsUnder = [&](Color c) {
    g.setColor(net, c);
    const int near = nearOwn(model.coloredFragmentsInWindow(layer, window));
    if (near == 0) return 0;
    if (!baseline) baseline = nearOwn(baselineFrags);
    return std::max(0, near - *baseline);
  };

  const Color base = model.maskColor(net, layer);
  int conflicts = conflictsUnder(base);
  if (conflicts > 0) {
    // Try every alternative color in index order, keep the best. At
    // k = 2 this is the single flippedColor(base) probe.
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
  return {conflicts, !baseline};
}

int OverlayAwareRouter::windowViolations(int layer, const Rect& windowTr) {
  std::vector<ColoredFragment> frags =
      model_.coloredFragmentsInWindow(layer, windowTr);
  LastWindow& last = lastWindow_[std::size_t(layer)];
  // A decomposition is a pure function of its fragment list under this
  // router's fixed rules and options, so an equal list has an equal count.
  if (last.violations >= 0 && frags == last.frags) {
    counters_.windowReuses->add(1);
    return last.violations;
  }
  const OverlayReport r =
      decomposeLayerShared(frags, grid_->rules(), bindDecomposeOpts())->report;
  last.frags = std::move(frags);
  last.violations = r.cutConflicts() + r.hardOverlays;
  return last.violations;
}

int OverlayAwareRouter::resolveCutConflicts(const Net& net) {
  SADP_SPAN_ARG("router.cut_check", net.id);
  int conflicts = 0;
  for (int layer = 0; layer < grid_->layers(); ++layer) {
    const LayerCutCheck c =
        checkLayerCuts(model_, net.id, layer, grid_->rules(),
                       opts_.cutCheckWindowTracks, bindDecomposeOpts());
    if (c.baselineSkipped) counters_.baselineSkips->add(1);
    conflicts += c.conflicts;
  }
  return conflicts;
}

int OverlayAwareRouter::repairViolations(int maxPasses) {
  RunContext::Scope bind(*ctx_);
  SADP_SPAN("router.repair");
  const Nm pitch = grid_->rules().pitch();
  for (int pass = 0; pass < maxPasses; ++pass) {
    SADP_SPAN_ARG("router.repair_pass", pass);
    bool changed = false;
    // Pass-start snapshots: all layers decompose in parallel. A snapshot is
    // only valid while no repair action has mutated colors or routes since
    // the pass started; `dirty` tracks that conservatively (set on every
    // attempted reroute/teardown, not only kept ones, because a failed
    // reroute still re-colors the restored net).
    bool dirty = false;
    std::vector<std::shared_ptr<const LayerDecomposition>> snapshots(
        std::size_t(grid_->layers()));
    parallelFor(*ctx_, grid_->layers(), [&](int l) {
      SADP_SPAN_ARG("repair.snapshot_layer", l);
      snapshots[std::size_t(l)] = decomposeShared(l);
    });
    for (int layer = 0; layer < grid_->layers(); ++layer) {
      const std::shared_ptr<const LayerDecomposition> full =
          dirty ? decomposeShared(layer) : snapshots[std::size_t(layer)];
      std::vector<Rect> boxes = full->conflictBoxesNm;
      boxes.insert(boxes.end(), full->hardOverlayBoxesNm.begin(),
                   full->hardOverlayBoxesNm.end());
      if (boxes.empty()) continue;
      OverlayConstraintGraph& g = model_.graph(layer);
      for (const Rect& boxNm : boxes) {
        const Rect windowTr{
            Track(boxNm.xlo / pitch - 8), Track(boxNm.ylo / pitch - 8),
            Track(boxNm.xhi / pitch + 9), Track(boxNm.yhi / pitch + 9)};
        int current = windowViolations(layer, windowTr);
        if (current == 0) continue;  // fixed by a previous repair

        // Stage 1: color flips of involved nets.
        std::vector<NetId> candidates;
        const Rect tightTr{
            Track(boxNm.xlo / pitch - 1), Track(boxNm.ylo / pitch - 1),
            Track(boxNm.xhi / pitch + 2), Track(boxNm.yhi / pitch + 2)};
        for (const Fragment& f : model_.fragmentsInWindow(layer, tightTr)) {
          if (std::find(candidates.begin(), candidates.end(), f.net) ==
              candidates.end()) {
            candidates.push_back(f.net);
          }
        }
        for (NetId n : candidates) {
          const Color base = model_.maskColor(n, layer);
          // Try every alternative class color in index order; keep the
          // first improvement. At k = 2 the only alternative is
          // flippedColor(base), the old single-flip behavior.
          for (int ci = 0; ci < g.colorCount(); ++ci) {
            const Color alt = colorFromIndex(ci);
            if (alt == base) continue;
            g.setColor(n, alt);
            // Class-wide legality: the flip moves every hard-classmate.
            if (g.classOverlayUnits(n) >= kHardCost) {
              g.setColor(n, base);
              continue;
            }
            const int after = windowViolations(layer, windowTr);
            if (after < current) {
              current = after;
              changed = true;
              dirty = true;
              counters_.repairFlips->add(1);
              break;
            }
            g.setColor(n, base);
          }
          if (current == 0) break;  // only an improvement lowers it
        }
        if (current == 0) continue;

        // Stage 2: targeted rip-up & re-route of one involved net.
        std::sort(candidates.begin(), candidates.end(),
                  [&](NetId a, NetId b) {
                    return states_[a].path.size() < states_[b].path.size();
                  });
        bool fixed = false;
        for (NetId n : candidates) {
          if (!states_[n].routed) continue;
          dirty = true;  // a failed reroute still re-colors the restored net
          if (rerouteAway(netlist_->nets[n], tightTr, layer)) {
            changed = true;
            fixed = true;
            counters_.repairReroutes->add(1);
            break;
          }
        }
        if (fixed || pass + 1 < maxPasses) continue;

        // Stage 3 (last pass only): the paper strictly forbids cut
        // conflicts -- sacrifice the cheapest involved net rather than
        // ship a conflicting layout. A teardown can also expose neighbors
        // (their spacer provider disappears), so it must prove itself.
        if (opts_.sacrificeForZeroConflicts) {
          for (NetId n : candidates) {
            if (!states_[n].routed) continue;
            const int before = windowViolations(layer, windowTr);
            const std::vector<GridNode> oldPath = states_[n].path;
            dirty = true;  // restoreNet re-colors through pseudo-coloring
            tearDownNet(netlist_->nets[n]);
            if (windowViolations(layer, windowTr) < before) {
              changed = true;
              counters_.repairSacrifices->add(1);
              break;
            }
            restoreNet(netlist_->nets[n], oldPath);
          }
        }
      }
    }
    if (!changed) break;
  }
  std::vector<int> remainingPerLayer(std::size_t(grid_->layers()), 0);
  parallelFor(*ctx_, grid_->layers(), [&](int layer) {
    SADP_SPAN_ARG("repair.signoff_layer", layer);
    const auto d = decomposeShared(layer);
    remainingPerLayer[std::size_t(layer)] =
        d->report.cutConflicts() + d->report.hardOverlays;
  });
  int remaining = 0;
  for (const int r : remainingPerLayer) remaining += r;
  return remaining;
}

bool OverlayAwareRouter::rerouteAway(const Net& net, const Rect& avoidTr,
                                     int layer) {
  SADP_SPAN_ARG("router.reroute_away", net.id);
  NetRouteState& st = states_[net.id];
  if (!st.routed) return false;
  const std::vector<GridNode> oldPath = st.path;

  // Local sign-off metric: violations inside the conflict window, summed
  // over all layers, must strictly decrease, or the old route is restored.
  const Rect windowTr = avoidTr.inflated(8);
  auto localViol = [&]() {
    int total = 0;
    for (int l = 0; l < grid_->layers(); ++l) {
      total += windowViolations(l, windowTr);
    }
    return total;
  };
  const int before = localViol();

  tearDownNet(net);
  clearRipUpField();
  for (Track y = avoidTr.ylo; y < avoidTr.yhi; ++y) {
    for (Track x = avoidTr.xlo; x < avoidTr.xhi; ++x) {
      addRipUpPenalty({x, y, std::int16_t(layer)}, 25.0f * kRipUpPenalty);
    }
  }
  if (routeNet(net, /*freshPenaltyField=*/false)) {
    if (localViol() < before) return true;
    tearDownNet(net);  // new route is not an improvement: roll back
  }

  restoreNet(net, oldPath);
  return false;
}

void OverlayAwareRouter::restoreNet(const Net& net,
                                    const std::vector<GridNode>& oldPath) {
  // Re-color through pseudo-coloring (forcing previously captured colors
  // could violate hard classes that changed meanwhile).
  NetRouteState& st = states_[net.id];
  st.path = oldPath;
  occupyPath(net);
  model_.addNet(net.id, st.path);
  model_.pseudoColor(net.id);
  applyT2bMarks(net.id, +1.0f);
  st.vias = 0;
  st.wirelength = std::int64_t(st.path.size()) - 1;
  for (std::size_t i = 1; i < st.path.size(); ++i) {
    if (st.path[i].layer != st.path[i - 1].layer) {
      ++st.vias;
      --st.wirelength;
    }
  }
  stats_.vias += st.vias;
  stats_.wirelength += st.wirelength;
  ++stats_.routedNets;
  st.routed = true;
}

}  // namespace sadp
