// Potential-overlay-scenario taxonomy (paper §III-A, Theorems 1-3, Fig. 9,
// Table II, Appendix Figs. 23-34).
//
// A pair of dependent wire fragments is classified by the tuple
// (Xmin, Ymin, Dir) measured in routing tracks. Every scenario type carries
// a per-color-assignment side-overlay cost (in units of w_line) plus flags
// for assignments that are strictly forbidden (hard overlays) or that risk
// a Type-A cut conflict (paper §III-D, Fig. 15(a)).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>

#include "geom/geom.hpp"
#include "grid/routing_grid.hpp"

namespace sadp {

/// Mask assignment of a net segment: printed by the core mask, or formed as
/// a second pattern by spacers. `Third` exists only for k>=3 patterning
/// backends (a third exposure mask); the SADP stack never produces it.
/// Unassigned keeps value 2 so the packed 2-color tables are untouched.
enum class Color : std::uint8_t {
  Core = 0,
  Second = 1,
  Unassigned = 2,
  Third = 3,
};

const char* toString(Color c);
constexpr Color flippedColor(Color c) {
  return c == Color::Core ? Color::Second
         : c == Color::Second ? Color::Core
                              : Color::Unassigned;
}

/// Dense index of an assignable color: Core 0, Second 1, Third 2.
/// (Distinct from the enum value: Third sorts after Unassigned so the
/// 2-color code keeps its historical values.) Unassigned maps to -1.
constexpr int colorIndex(Color c) {
  switch (c) {
    case Color::Core: return 0;
    case Color::Second: return 1;
    case Color::Third: return 2;
    default: return -1;
  }
}
constexpr Color colorFromIndex(int i) {
  return i == 0   ? Color::Core
         : i == 1 ? Color::Second
         : i == 2 ? Color::Third
                  : Color::Unassigned;
}

/// The eleven dependent geometry classes of Theorem 2 plus `Independent`
/// (distance >= d_indep or same polygon). Names follow Fig. 9.
enum class ScenarioType : std::uint8_t {
  Independent,
  T1a,  ///< (0,1,par)  side-to-side @1 track  -- hard: different colors
  T1b,  ///< (0,1,perp) tip-to-side @1         -- hard: same color
  T2a,  ///< (0,2,par)  side-to-side @2        -- nonhard: same color
  T2b,  ///< (0,2,perp) tip-to-side @2         -- >=1 unit overlay always
  T2c,  ///< (1,0,par)  tip-to-tip @1          -- tip overlays only
  T2d,  ///< (2,0,par)  tip-to-tip @2          -- no side overlay
  T3a,  ///< (1,1,par)  diagonal               -- nonhard: different colors
  T3b,  ///< (1,1,perp) diagonal orthogonal    -- nonhard: both second
  T3c,  ///< (1,2,par)                         -- nonhard: forbid CS
  T3d,  ///< (2,1,par)                         -- nonhard: forbid SC
  T3e,  ///< (1,2,perp)                        -- no side overlay
};

const char* toString(ScenarioType t);

/// Index into per-assignment arrays for the color pair (a, b):
/// 0 = CC, 1 = CS, 2 = SC, 3 = SS (first letter = pattern A).
constexpr int assignmentIndex(Color a, Color b) {
  return (a == Color::Second ? 2 : 0) + (b == Color::Second ? 1 : 0);
}

/// Sentinel cost for a hard-forbidden color assignment.
inline constexpr int kHardCost = 1'000'000;

/// Static description of one scenario type (row of Table II).
struct ScenarioRule {
  ScenarioType type = ScenarioType::Independent;
  /// Side overlay induced per assignment, in units of w_line; kHardCost for
  /// assignments that induce hard overlays (strictly forbidden).
  std::array<int, 4> overlay{0, 0, 0, 0};
  /// Assignments that additionally induce a Type-A cut conflict; the router
  /// forbids these outright (paper §III-D).
  std::array<bool, 4> cutRisk{false, false, false, false};

  bool isHard() const {
    for (int c : overlay) {
      if (c >= kHardCost) return true;
    }
    return false;
  }
  /// Minimum achievable side overlay ("min SO" column of Table II).
  int minOverlay() const;
  /// Worst finite side overlay ("max SO" column of Table II).
  int maxOverlay() const;
  /// True if no assignment induces side overlay (types 2-c, 2-d, 3-e);
  /// such scenarios produce no constraint-graph edge.
  bool trivial() const { return maxOverlay() == 0; }
};

/// The full rule table, one entry per ScenarioType (Table II).
const ScenarioRule& scenarioRule(ScenarioType t);

/// A wire fragment: a maximal rectangle of a routed net on one layer, in
/// half-open *track* coordinates.
struct Fragment {
  Track xlo = 0, ylo = 0, xhi = 0, yhi = 0;  // half-open track box
  NetId net = kInvalidNet;

  Track width() const { return xhi - xlo; }
  Track height() const { return yhi - ylo; }
  Orient orient() const {
    return height() > width() ? Orient::Vertical : Orient::Horizontal;
  }
  friend constexpr bool operator==(const Fragment&, const Fragment&) = default;
};

std::ostream& operator<<(std::ostream& os, const Fragment& f);

/// One colored wire fragment to decompose (sadp/decompose.hpp).
struct ColoredFragment {
  Fragment frag;
  Color color = Color::Core;
  friend constexpr bool operator==(const ColoredFragment&,
                                   const ColoredFragment&) = default;
};

/// Track-space separation of two half-open index ranges: 0 if the ranges
/// share a track, else the number of track pitches between nearest tracks
/// (adjacent tracks -> 1).
constexpr Track trackGap(Track alo, Track ahi, Track blo, Track bhi) {
  if (ahi <= blo) return blo - ahi + 1;
  if (bhi <= alo) return alo - bhi + 1;
  return 0;
}

/// Result of classifying an ordered fragment pair (A, B): the scenario type
/// plus the overlay/cut-risk arrays already permuted so that index
/// assignmentIndex(colorA, colorB) applies to THIS (A, B) order.
struct Classification {
  ScenarioType type = ScenarioType::Independent;
  std::array<int, 4> overlay{0, 0, 0, 0};
  std::array<bool, 4> cutRisk{false, false, false, false};

  bool independent() const { return type == ScenarioType::Independent; }
  bool hard() const;
  /// True if the scenario constrains coloring at all.
  bool material() const;
};

/// Classifies a fragment pair per Theorems 1-2. Fragments of the same net
/// are always Independent (Theorem 3). The geometry tuple is normalized to
/// the fragments' orientation (for parallel pairs: gap along the wire axis
/// vs across it) and to the symmetric (x,y)==(y,x) rule for orthogonal
/// pairs. `multiplicity` scaling of overlay length by the facing span is
/// intentionally NOT applied here; the constraint graph handles weights.
Classification classify(const Fragment& a, const Fragment& b);

/// Independence predicate of Theorem 1 in track space. The edge-to-edge
/// distance of wires with track gaps (gx, gy) is
/// sqrt((gx*p - w)^2 + (gy*p - w)^2) with p = 40, w = 20 nm; comparing with
/// d_indep = 84.85 nm leaves exactly the tuples of Theorem 2 dependent:
/// axis tuples (0,1), (0,2) and diagonal tuples (1,1), (1,2), (2,1).
constexpr bool independentGaps(Track gx, Track gy) {
  if (gx == 0 && gy == 0) return true;  // same polygon / overlapping ranges
  if (gx == 0 || gy == 0) return std::max(gx, gy) >= 3;
  const Track mn = gx < gy ? gx : gy;
  const Track mx = gx < gy ? gy : gx;
  return mn >= 2 || mx >= 3;
}

/// Independence radius of Theorem 1 in whole tracks: the smallest track
/// count k such that any fragment farther than k tracks (in both axes) is
/// Independent of a given fragment. d_indep = sqrt(2) * (w_line +
/// 2*w_spacer) ~= 84.85 nm under default rules; dividing by the pitch and
/// rounding up gives k = 3. The ECO path uses this to bound an edit's
/// dirty region: nets entirely outside the edited geometry inflated by k
/// tracks cannot change scenario relations with it (service/session.cpp).
Track independenceRadiusTracks(const DesignRules& rules);

}  // namespace sadp
