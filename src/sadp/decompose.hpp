// SADP cut-process mask synthesis and physical verification (ground truth).
//
// Given the colored wire fragments of one routing layer, this module
// constructs the actual masks of the cut process (paper Fig. 1(b)):
//
//   core mask  = core-colored metal + assistant core patterns, with shapes
//                closer than d_core merged (the merge technique, Fig. 2)
//   spacer     = w_spacer ring grown around every core-mask shape
//   cut mask   = everything that is neither spacer nor target metal
//                (spacer-is-dielectric: final metal = NOT spacer AND NOT cut)
//
// and then *measures* the result like a sign-off deck would:
//   - side overlays: side-boundary sections of target metal defined by the
//     cut mask instead of a spacer (hard if longer than w_line),
//   - tip overlays: cut-defined line ends (non-critical),
//   - cut conflicts: cut-mask MRC violations (min width w_cut, min space
//     d_cut) that occur over a target pattern (violations over spacers are
//     benign, Fig. 5).
//
// This is the arbiter for the scenario cost table: the constraint graph
// predicts overlays; this module measures them on real mask geometry.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "grid/design_rules.hpp"
#include "ocg/scenario.hpp"
#include "run/run_context.hpp"
#include "sadp/bitmap.hpp"

namespace sadp {

class MaskCache;  // sadp/mask_cache.hpp

/// One colored wire fragment to decompose.
struct ColoredFragment {
  Fragment frag;
  Color color = Color::Core;
};

/// Physical measurement of one decomposed layer.
struct OverlayReport {
  std::int64_t sideOverlayNm = 0;   ///< total side-overlay length
  int sideOverlaySections = 0;      ///< contiguous unprotected side sections
  int hardOverlays = 0;             ///< sections longer than w_line
  int tipOverlays = 0;              ///< unprotected line ends
  int cutWidthConflicts = 0;        ///< sub-w_cut cut features over target
  int cutSpaceConflicts = 0;        ///< sub-d_cut cut gaps over target
  std::int64_t spacerOverTargetPx = 0;  ///< spacer eating metal (must be 0)

  int cutConflicts() const { return cutWidthConflicts + cutSpaceConflicts; }
  /// Side-overlay length in units of w_line (the paper's unit).
  std::int64_t sideOverlayUnits(const DesignRules& r) const {
    return sideOverlayNm / r.wLine;
  }

  OverlayReport& operator+=(const OverlayReport& o);
  friend bool operator==(const OverlayReport&, const OverlayReport&) = default;
};

/// Masks plus measurement for one layer.
struct LayerDecomposition {
  Bitmap target;   ///< final metal
  Bitmap coreMask; ///< core + assistant cores after merging
  Bitmap spacer;   ///< grown spacer ring
  Bitmap cut;      ///< cut mask
  Bitmap assists;  ///< assistant-core material (after clipping/trimming)
  Bitmap bridges;  ///< merge-technique bridge fills
  /// k-patterning exposure planes (one metal plane per color), filled only
  /// by k>2 synthesizers (PatterningSynthesizer); empty for the SADP cut
  /// process, whose planes are the named bitmaps above. maskFingerprint
  /// folds these only when present so SADP fingerprints are unchanged.
  std::vector<Bitmap> masks;
  /// nm bounding boxes of each cut-conflict region (width and space).
  std::vector<Rect> conflictBoxesNm;
  /// nm bounding boxes of each hard (longer than w_line) side overlay.
  std::vector<Rect> hardOverlayBoxesNm;
  OverlayReport report;
  Rect windowNm;   ///< nm box the rasters cover
  int pxPerNm10 = 1;  ///< raster resolution: 1 px = 10 nm
};

/// Identity of the built-in SADP cut-process synthesis (the decomposeLayer
/// pipeline in this file). A DecomposeOptions::synth that reports this id
/// -- or a null synth -- takes the built-in path; mask-cache keys absorb
/// the id either way, so null and an explicit SADP backend share entries.
inline constexpr std::uint64_t kSadpCutSynthId = 0x5adc'0c75'0002'0001ull;

struct DecomposeOptions;

/// Mask-synthesis strategy of a patterning backend (DESIGN.md §5.13).
/// Defined here (not in src/patterning) so the decomposition layer can
/// dispatch without depending on the backend library: PatterningBackend
/// derives from this, sadp_patterning links sadp_sadp, and the dependency
/// arrow stays one-directional.
class PatterningSynthesizer {
 public:
  virtual ~PatterningSynthesizer() = default;
  /// Stable identity folded into MaskCache keys. Must change whenever
  /// synthesize() output could change for identical inputs.
  virtual std::uint64_t synthId() const = 0;
  /// Number of exposure planes synthesize() emits in LayerDecomposition::
  /// masks (0 for the SADP cut process, which uses the named planes).
  virtual int maskCount() const = 0;
  /// Builds the layer's mask planes and measurement. Must NOT consult
  /// opts.synth (the caller already dispatched) and must be deterministic.
  virtual LayerDecomposition synthesize(std::span<const ColoredFragment> frags,
                                        const DesignRules& rules,
                                        const DecomposeOptions& opts) const = 0;
};

struct DecomposeOptions {
  bool insertAssists = true;  ///< grow assistant cores for second patterns
  bool mergeCores = true;     ///< apply the merge technique
  /// Overlay-aware assist trimming: when a merge involving a sacrificial
  /// assist would damage third-party metal, trim the assist instead.
  /// Disabled to reconstruct routers that merge assists without overlay
  /// control ([16], Fig. 22).
  bool trimAssists = true;
  Nm margin = 120;            ///< nm of empty field kept around the window
  /// Run context the decomposition reports metrics/spans into and draws
  /// parallel workers from; null = the calling thread's bound context.
  RunContext* ctx = nullptr;
  /// Optional shared result cache (sadp/mask_cache.hpp). A hit returns a
  /// byte-identical plane without recomputation; a miss computes and
  /// inserts. Hit/miss land on the ctx counters mask_cache.hits/.misses.
  MaskCache* cache = nullptr;
  /// Mask-synthesis strategy. Null or an object whose synthId() ==
  /// kSadpCutSynthId takes the built-in SADP cut-process pipeline below;
  /// anything else is dispatched to synth->synthesize() (under the same
  /// cache, whose key absorbs the synth identity).
  const PatterningSynthesizer* synth = nullptr;
};

/// Synthesizes and measures one layer. Fragments are in track coordinates
/// under `rules` (pitch = w_line + w_spacer); colors Unassigned default to
/// Core. The raster window is the fragments' bounding box plus margin.
LayerDecomposition decomposeLayer(std::span<const ColoredFragment> frags,
                                  const DesignRules& rules,
                                  const DecomposeOptions& opts = {});

/// Copy-free variant for read-only consumers: a cache hit hands back the
/// resident plane instead of deep-copying megabytes of bitmaps (the warm
/// ECO path does hundreds of windowed lookups per edit).
std::shared_ptr<const LayerDecomposition> decomposeLayerShared(
    std::span<const ColoredFragment> frags, const DesignRules& rules,
    const DecomposeOptions& opts = {});

/// Order-sensitive 64-bit digest over all six mask planes and the window
/// box — the byte-identity witness the ECO correctness bar compares
/// (service sessions report it per layer; the fuzz suite equates ECO
/// replays with cold routes through it).
std::uint64_t maskFingerprint(const LayerDecomposition& d);

/// Metal rectangle (nm) of a fragment under the given rules.
Rect fragmentMetalNm(const Fragment& f, const DesignRules& rules);

/// Maximal-rectangle decomposition of a raster region (row slabs merged
/// vertically), returned in nm using the window the raster covers.
std::vector<Rect> rasterToNmRects(const Bitmap& b, const Rect& windowNm);

/// Cut-spacing MRC kernel (Fig. 15(b)): pixels of an axis-aligned gap
/// between two consecutive `cut` runs narrower than `minGapPx`, restricted
/// to where the gap crosses `target` metal. Both axes run word-parallel:
/// rows via run extraction over the packed words, columns by transposing
/// the rasters, rerunning the row pass, and transposing back.
Bitmap narrowGapFlags(const Bitmap& cut, const Bitmap& target, int minGapPx);

}  // namespace sadp
