#include "sadp/decompose.hpp"

#include "sadp/mask_cache.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "run/run_context.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace sadp {

OverlayReport& OverlayReport::operator+=(const OverlayReport& o) {
  sideOverlayNm += o.sideOverlayNm;
  sideOverlaySections += o.sideOverlaySections;
  hardOverlays += o.hardOverlays;
  tipOverlays += o.tipOverlays;
  cutWidthConflicts += o.cutWidthConflicts;
  cutSpaceConflicts += o.cutSpaceConflicts;
  spacerOverTargetPx += o.spacerOverTargetPx;
  return *this;
}

Rect fragmentMetalNm(const Fragment& f, const DesignRules& rules) {
  const Nm p = rules.pitch();
  const Nm s = (p - rules.wLine) / 2;
  return Rect{Nm(f.xlo * p + s), Nm(f.ylo * p + s), Nm(f.xhi * p - s),
              Nm(f.yhi * p - s)};
}

namespace {

constexpr int kPxNm = 10;  ///< raster resolution

struct Raster {
  Rect windowNm;
  int w = 0, h = 0;
  int toX(Nm nm) const { return int((nm - windowNm.xlo) / kPxNm); }
  int toY(Nm nm) const { return int((nm - windowNm.ylo) / kPxNm); }
  void fill(Bitmap& b, const Rect& r) const {
    b.fillRect(toX(r.xlo), toY(r.ylo), toX(r.xhi), toY(r.yhi));
  }
  bool anyTarget(const Bitmap& b, const Rect& r) const {
    return b.anyInRect(toX(r.xlo), toY(r.ylo), toX(r.xhi), toY(r.yhi));
  }
};

/// One shape destined for the core mask: real (core-colored) metal or a
/// sacrificial assistant-core strip.
struct CoreShape {
  Rect nm;
  bool assist = false;
};

}  // namespace

std::vector<Rect> rasterToNmRects(const Bitmap& b, const Rect& windowNm) {
  std::vector<Rect> pxRects;
  // Collect row runs, then merge vertically identical stacks. Open runs
  // are keyed by their (x0,x1) span -- spans are unique within a row -- so
  // each row matches in O(runs) instead of O(runs^2).
  struct Run {
    int x0, x1, y0, y1;
  };
  auto spanKey = [](int x0, int x1) {
    return (std::uint64_t(std::uint32_t(x0)) << 32) | std::uint32_t(x1);
  };
  std::vector<Run> open;
  std::unordered_map<std::uint64_t, std::size_t> openIdx;
  std::vector<std::pair<int, int>> runs;
  for (int y = 0; y <= b.height(); ++y) {
    runs.clear();
    if (y < b.height()) rowRuns(b, y, runs);
    std::vector<Run> next;
    next.reserve(runs.size());
    for (auto& [x0, x1] : runs) {
      const auto it = openIdx.find(spanKey(x0, x1));
      if (it != openIdx.end()) {
        Run& r = open[it->second];
        r.y1 = y + 1;
        next.push_back(r);
        r.y1 = -1;  // consumed
      } else {
        next.push_back({x0, x1, y, y + 1});
      }
    }
    for (const Run& r : open) {
      if (r.y1 >= 0) {
        pxRects.push_back(Rect{r.x0, r.y0, r.x1, r.y1});
      }
    }
    open = std::move(next);
    openIdx.clear();
    for (std::size_t i = 0; i < open.size(); ++i) {
      openIdx.emplace(spanKey(open[i].x0, open[i].x1), i);
    }
  }
  std::vector<Rect> out;
  out.reserve(pxRects.size());
  for (const Rect& p : pxRects) {
    out.push_back(Rect{Nm(windowNm.xlo + p.xlo * kPxNm),
                       Nm(windowNm.ylo + p.ylo * kPxNm),
                       Nm(windowNm.xlo + p.xhi * kPxNm),
                       Nm(windowNm.ylo + p.yhi * kPxNm)});
  }
  return out;
}

namespace {

/// Axis-gap box between two rects (their "merge bridge" region).
Rect bridgeBox(const Rect& a, const Rect& b) {
  const Nm bx0 = (a.xhi <= b.xlo)   ? a.xhi
                 : (b.xhi <= a.xlo) ? b.xhi
                                    : std::max(a.xlo, b.xlo);
  const Nm bx1 = (a.xhi <= b.xlo)   ? b.xlo
                 : (b.xhi <= a.xlo) ? a.xlo
                                    : std::min(a.xhi, b.xhi);
  const Nm by0 = (a.yhi <= b.ylo)   ? a.yhi
                 : (b.yhi <= a.ylo) ? b.yhi
                                    : std::max(a.ylo, b.ylo);
  const Nm by1 = (a.yhi <= b.ylo)   ? b.ylo
                 : (b.yhi <= a.ylo) ? a.ylo
                                    : std::min(a.yhi, b.yhi);
  return Rect{bx0, by0, bx1, by1};
}

}  // namespace

static LayerDecomposition decomposeLayerUncached(
    std::span<const ColoredFragment> frags, const DesignRules& rules,
    const DecomposeOptions& opts) {
  RunContext& ctx = opts.ctx ? *opts.ctx : RunContext::current();
  RunContext::Scope bindCtx(ctx);
  SADP_SPAN_ARG("decompose", std::int64_t(frags.size()));
  MetricsRegistry& m = ctx.metrics();
  m.counter("decompose.calls").add(1);
  LayerDecomposition out;
  // Window: bounding box of all metal plus margin, aligned to pixels.
  Rect bbox;
  for (const ColoredFragment& cf : frags) {
    bbox = bbox.unionWith(fragmentMetalNm(cf.frag, rules));
  }
  if (bbox.empty()) bbox = Rect{0, 0, kPxNm, kPxNm};
  const Nm margin = std::max<Nm>(opts.margin, rules.pitch());
  bbox = bbox.inflated(margin);
  bbox.xlo -= bbox.xlo % kPxNm;
  bbox.ylo -= bbox.ylo % kPxNm;

  Raster rr;
  rr.windowNm = bbox;
  rr.w = int((bbox.xhi - bbox.xlo + kPxNm - 1) / kPxNm);
  rr.h = int((bbox.yhi - bbox.ylo + kPxNm - 1) / kPxNm);
  out.windowNm = bbox;

  const int spacerPx = rules.wSpacer / kPxNm;
  const int wCutPx = rules.wCut / kPxNm;
  const int dCutPx = rules.dCut / kPxNm;

  m.histogram("decompose.window_words")
      .add(std::int64_t(Bitmap::wordsPerRow(rr.w)) * rr.h);

  // ---- Step 1: target metal and real core shapes ---------------------------
  Bitmap target(rr.w, rr.h), coreRaw(rr.w, rr.h);
  std::vector<CoreShape> shapes;
  {
    SADP_SPAN("decompose.paint");
    for (const ColoredFragment& cf : frags) {
      const Rect m = fragmentMetalNm(cf.frag, rules);
      rr.fill(target, m);
      if (cf.color != Color::Second) {
        rr.fill(coreRaw, m);
        shapes.push_back({m, /*assist=*/false});
      }
    }
  }

  // ---- Step 2: assistant core strips ---------------------------------------
  // Every second pattern gets a w_core-wide strip at w_spacer distance along
  // each side. Stub (square) fragments are fully ringed with four strips so
  // their boundaries are spacer-defined too.
  Bitmap assists(rr.w, rr.h);
  if (opts.insertAssists) {
    SADP_SPAN("decompose.assists");
    for (const ColoredFragment& cf : frags) {
      if (cf.color != Color::Second) continue;
      const Fragment& f = cf.frag;
      const Rect m = fragmentMetalNm(f, rules);
      const Nm off = rules.wSpacer;
      const Nm ow = rules.wCore;
      const bool stub = f.width() == f.height();
      std::vector<Rect> strips;
      // Stubs are ringed on all four sides; the ring's corner strips merge
      // (total-loss rule below), which nibbles the stub corners slightly --
      // the corner-rounding reality of a conformal spacer.
      if (stub || f.orient() == Orient::Horizontal) {
        strips.push_back({m.xlo, m.yhi + off, m.xhi, m.yhi + off + ow});
        strips.push_back({m.xlo, m.ylo - off - ow, m.xhi, m.ylo - off});
      }
      if (stub || f.orient() == Orient::Vertical) {
        strips.push_back({m.xhi + off, m.ylo, m.xhi + off + ow, m.yhi});
        strips.push_back({m.xlo - off - ow, m.ylo, m.xlo - off, m.yhi});
      }
      for (const Rect& s : strips) rr.fill(assists, s);
    }
    // Core material must keep >= w_spacer clearance from every metal shape
    // (its own wire sits at exactly w_spacer, so only foreign metal clips);
    // otherwise the assist's spacer would eat the neighboring pattern.
    assists.andNot(target.dilated(spacerPx));
    for (const Rect& s : rasterToNmRects(assists, rr.windowNm)) {
      shapes.push_back({s, /*assist=*/true});
    }
  }

  // ---- Step 3: merge technique / assist trimming ---------------------------
  // Core-mask shapes closer than d_core cannot print separately. Two real
  // metal shapes (or metal + assist) are merged by filling the gap between
  // them (Fig. 2); the separating cut then re-opens the bridge, which is
  // what produces the scenario overlays. When a merge involving a
  // sacrificial assist would push spacer material onto third-party metal,
  // the assist is trimmed back instead (locally sacrificing protection --
  // the resulting exposure is measured as overlay).
  Bitmap bridges(rr.w, rr.h);
  Bitmap trims(rr.w, rr.h);
  if (opts.mergeCores) {
    SADP_SPAN("decompose.merge");
    const std::int64_t dCoreSq = std::int64_t(rules.dCore) * rules.dCore;
    SpatialHash shapeIndex(/*pitch=*/256);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      shapeIndex.insert(shapes[i].nm, std::uint32_t(i));
    }
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Rect window = shapes[i].nm.inflated(rules.dCore);
      std::vector<std::uint32_t> near;
      shapeIndex.query(window, [&](const Rect&, std::uint32_t j) {
        if (j > i) near.push_back(j);
      });
      for (std::uint32_t j : near) {
        const CoreShape& a = shapes[i];
        const CoreShape& b = shapes[j];
        const std::int64_t d2 = distSq(a.nm, b.nm);
        if (d2 == 0 || d2 >= dCoreSq) continue;
        const Rect box = bridgeBox(a.nm, b.nm);
        // Merging is harmful only when the merged blob's spacer would land
        // on THIRD-party metal; the pair's own shapes are exempt (the cut
        // re-opening the bridge against them is the normal merge overlay).
        const Rect probe = box.inflated(rules.wSpacer);
        bool harmless = true;
        for (Nm py = probe.ylo; py < probe.yhi && harmless; py += kPxNm) {
          for (Nm px = probe.xlo; px < probe.xhi && harmless; px += kPxNm) {
            const Pt c{px + kPxNm / 2, py + kPxNm / 2};
            if (a.nm.contains(c) || b.nm.contains(c)) continue;
            if (target.get(rr.toX(px), rr.toY(py))) harmless = false;
          }
        }
        // Trim reach is rounded up to 2*w_spacer so the remaining assist
        // end keeps the layout on the w_spacer lattice (a d_core trim would
        // leave sub-w_cut cut slivers between the spacers).
        const Nm reach = std::max<Nm>(rules.dCore, 2 * rules.wSpacer);
        const Rect trimA =
            a.assist ? b.nm.inflated(reach).intersect(a.nm) : Rect{};
        const Rect trimB =
            b.assist ? a.nm.inflated(reach).intersect(b.nm) : Rect{};
        // A trim that would erase an assist completely (typical for the
        // tiny strips of a stub ring) loses more protection than the merge
        // damages: prefer the merge and accept the corner nibble.
        const bool totalLoss =
            (a.assist && trimA == a.nm) || (b.assist && trimB == b.nm);
        if ((!a.assist && !b.assist) || harmless || totalLoss ||
            !opts.trimAssists) {
          rr.fill(bridges, box);
        } else {
          if (a.assist) rr.fill(trims, trimA);
          if (b.assist) rr.fill(trims, trimB);
        }
      }
    }
    bridges.andNot(target);  // a bridge never overrides foreign metal
  }

  assists.andNot(trims);
  Bitmap coreMask = coreRaw | assists | bridges;

  // ---- Step 4: spacer ring --------------------------------------------------
  // ---- Step 5: cut mask (spacer-is-dielectric complement) -------------------
  Bitmap spacer, eaten, cut(rr.w, rr.h);
  {
    SADP_SPAN("decompose.spacer");
    spacer = coreMask.dilated(spacerPx);
    spacer.andNot(coreMask);
    eaten = spacer;  // spacer intruding into metal: CD damage
    eaten &= target;
    spacer.andNot(target);
    cut.fillRect(0, 0, rr.w, rr.h);
    cut.andNot(spacer);
    cut.andNot(target);
    out.report.spacerOverTargetPx = std::int64_t(eaten.count());
  }

  // ---- Step 6: overlay metering ---------------------------------------------
  // A boundary pixel is unprotected when the outside pixel is cut-defined
  // or when the spacer intruded into the metal there (eaten edge).
  auto unprotectedAt = [&](int ix, int iy, int ox, int oy) {
    return cut.get(ox, oy) || eaten.get(ix, iy);
  };

  {
    SADP_SPAN("decompose.meter");
    for (const ColoredFragment& cf : frags) {
      const Fragment& f = cf.frag;
      const Rect m = fragmentMetalNm(f, rules);
      const int xlo = rr.toX(m.xlo), xhi = rr.toX(m.xhi);
      const int ylo = rr.toY(m.ylo), yhi = rr.toY(m.yhi);
      const bool stub = f.width() == f.height();
      const bool horiz = f.orient() == Orient::Horizontal;

      // Walks one boundary line; `sidewall` = true for the two long sides.
      auto walk = [&](bool sidewall, int outFixed, int inFixed, int lo, int hi,
                      bool vertEdge) {
        int run = 0;
        int runEnd = lo;
        bool tipHit = false;
        auto flush = [&]() {
          if (run == 0) return;
          if (sidewall) {
            ++out.report.sideOverlaySections;
            out.report.sideOverlayNm += std::int64_t(run) * kPxNm;
            if (run * kPxNm > rules.wLine) {
              ++out.report.hardOverlays;
              const int t0 = runEnd - run, t1 = runEnd;
              const Rect boxPx = vertEdge
                                     ? Rect{inFixed, t0, inFixed + 1, t1}
                                     : Rect{t0, inFixed, t1, inFixed + 1};
              out.hardOverlayBoxesNm.push_back(
                  Rect{Nm(rr.windowNm.xlo + boxPx.xlo * kPxNm),
                       Nm(rr.windowNm.ylo + boxPx.ylo * kPxNm),
                       Nm(rr.windowNm.xlo + boxPx.xhi * kPxNm),
                       Nm(rr.windowNm.ylo + boxPx.yhi * kPxNm)});
            }
          } else {
            tipHit = true;
          }
          run = 0;
        };
        for (int t = lo; t < hi; ++t) {
          const int ox = vertEdge ? outFixed : t;
          const int oy = vertEdge ? t : outFixed;
          const int ix = vertEdge ? inFixed : t;
          const int iy = vertEdge ? t : inFixed;
          if (target.get(ox, oy)) {  // interior edge (same-net abutment)
            flush();
            continue;
          }
          if (unprotectedAt(ix, iy, ox, oy)) {
            ++run;
            runEnd = t + 1;
          } else {
            flush();
          }
        }
        flush();
        if (!sidewall && tipHit) ++out.report.tipOverlays;
      };

      const bool topBottomAreSides = horiz && !stub;
      const bool leftRightAreSides = !horiz && !stub;
      walk(topBottomAreSides, yhi, yhi - 1, xlo, xhi, false);   // top
      walk(topBottomAreSides, ylo - 1, ylo, xlo, xhi, false);   // bottom
      walk(leftRightAreSides, xhi, xhi - 1, ylo, yhi, true);    // right
      walk(leftRightAreSides, xlo - 1, xlo, ylo, yhi, true);    // left
    }
  }

  // ---- Step 7: cut-mask MRC over target (Fig. 5 / §III-D) -------------------
  SADP_SPAN("decompose.mrc");
  // Width: a pixel is narrow when no w_cut x w_cut square of cut material
  // covers it (anchored opening); it is flagged when it defines a target
  // edge, i.e. lies within Chebyshev distance 1 of target metal -- a
  // word-wise AND against the dilated target.
  // Spacing: axis-aligned cut-gap-cut patterns with gap < d_cut where the
  // gap crosses target metal (two cut patterns defining opposite sides of
  // a feature, Fig. 15(b)).
  Bitmap flaggedWidth = cut;
  flaggedWidth.andNot(cut.openedAnchored(wCutPx));
  flaggedWidth &= target.dilated(1);
  const Bitmap flaggedSpace = narrowGapFlags(cut, target, dCutPx);
  {
    const auto boxes = componentBoxes(flaggedWidth);
    out.report.cutWidthConflicts = int(boxes.size());
    for (const Rect& b : boxes) {
      out.conflictBoxesNm.push_back(
          Rect{Nm(rr.windowNm.xlo + b.xlo * kPxNm),
               Nm(rr.windowNm.ylo + b.ylo * kPxNm),
               Nm(rr.windowNm.xlo + b.xhi * kPxNm),
               Nm(rr.windowNm.ylo + b.yhi * kPxNm)});
    }
  }
  {
    const auto boxes = componentBoxes(flaggedSpace);
    out.report.cutSpaceConflicts = int(boxes.size());
    for (const Rect& b : boxes) {
      out.conflictBoxesNm.push_back(
          Rect{Nm(rr.windowNm.xlo + b.xlo * kPxNm),
               Nm(rr.windowNm.ylo + b.ylo * kPxNm),
               Nm(rr.windowNm.xlo + b.xhi * kPxNm),
               Nm(rr.windowNm.ylo + b.yhi * kPxNm)});
    }
  }

  out.target = std::move(target);
  out.coreMask = std::move(coreMask);
  out.spacer = std::move(spacer);
  out.cut = std::move(cut);
  out.assists = std::move(assists);
  out.bridges = std::move(bridges);
  return out;
}

namespace {

/// Uncached entry point with backend dispatch: a non-SADP synthesizer owns
/// the whole layer synthesis; null (or the SADP backend itself) takes the
/// built-in cut-process pipeline above, byte for byte.
LayerDecomposition synthesizeUncached(std::span<const ColoredFragment> frags,
                                      const DesignRules& rules,
                                      const DecomposeOptions& opts) {
  if (opts.synth != nullptr && opts.synth->synthId() != kSadpCutSynthId) {
    return opts.synth->synthesize(frags, rules, opts);
  }
  return decomposeLayerUncached(frags, rules, opts);
}

}  // namespace

std::shared_ptr<const LayerDecomposition> decomposeLayerShared(
    std::span<const ColoredFragment> frags, const DesignRules& rules,
    const DecomposeOptions& opts) {
  if (opts.cache == nullptr) {
    return std::make_shared<const LayerDecomposition>(
        synthesizeUncached(frags, rules, opts));
  }
  RunContext& ctx = opts.ctx ? *opts.ctx : RunContext::current();
  const MaskCacheKey key = maskCacheKey(frags, rules, opts);
  if (std::shared_ptr<const LayerDecomposition> hit = opts.cache->lookup(key)) {
    ctx.metrics().counter("mask_cache.hits").add(1);
    return hit;
  }
  ctx.metrics().counter("mask_cache.misses").add(1);
  return opts.cache->insert(key, synthesizeUncached(frags, rules, opts));
}

LayerDecomposition decomposeLayer(std::span<const ColoredFragment> frags,
                                  const DesignRules& rules,
                                  const DecomposeOptions& opts) {
  if (opts.cache == nullptr) {
    return synthesizeUncached(frags, rules, opts);  // move, no copy
  }
  return *decomposeLayerShared(frags, rules, opts);
}

std::uint64_t maskFingerprint(const LayerDecomposition& d) {
  // FNV-1a fold over the per-plane fingerprints plus the window box; any
  // single-bit mask difference flips it (up to hash collisions).
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Bitmap* b :
       {&d.target, &d.coreMask, &d.spacer, &d.cut, &d.assists, &d.bridges}) {
    fold(fingerprint(*b));
  }
  // k-patterning exposure planes. Folded only when present (with a count
  // prefix so plane boundaries matter), which keeps every SADP fingerprint
  // — including the committed goldens — byte-identical.
  if (!d.masks.empty()) {
    fold(std::uint64_t(d.masks.size()));
    for (const Bitmap& m : d.masks) fold(fingerprint(m));
  }
  fold(std::uint64_t(std::uint32_t(d.windowNm.xlo)));
  fold(std::uint64_t(std::uint32_t(d.windowNm.ylo)));
  fold(std::uint64_t(std::uint32_t(d.windowNm.xhi)));
  fold(std::uint64_t(std::uint32_t(d.windowNm.yhi)));
  return h;
}

Bitmap narrowGapFlags(const Bitmap& cut, const Bitmap& target, int minGapPx) {
  auto rowPass = [minGapPx](const Bitmap& cuts, const Bitmap& metal) {
    Bitmap gaps(cuts.width(), cuts.height());
    std::vector<std::pair<int, int>> runs;
    for (int y = 0; y < cuts.height(); ++y) {
      rowRuns(cuts, y, runs);
      for (std::size_t t = 1; t < runs.size(); ++t) {
        const int g0 = runs[t - 1].second, g1 = runs[t].first;
        if (g1 - g0 < minGapPx) gaps.fillRect(g0, y, g1, y + 1);
      }
    }
    gaps &= metal;
    return gaps;
  };
  Bitmap flagged = rowPass(cut, target);
  flagged |= rowPass(cut.transposed(), target.transposed()).transposed();
  return flagged;
}

}  // namespace sadp
