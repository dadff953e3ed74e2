// Linear-time color flipping (paper §III-C, Theorem 4).
//
// Pipeline per the paper, on one per-layer overlay constraint graph:
//   1. super-vertex reduction: every hard-connected class (the parity DSU
//      classes, equivalent to the paper's dummy-vertex + even-cycle
//      reduction) becomes one reduced vertex whose members have fixed
//      relative colors;
//   2. maximum spanning tree over the reduced multigraph, edge weight =
//      worst-case side overlay the scenario can induce (hard edges get a
//      weight above any nonhard edge);
//   3. flipping-graph dynamic program, eq. (4): each reduced vertex splits
//      into a Core and a Second copy; a bottom-up pass computes optimal
//      subtree costs, and a backtrace fixes colors. O(V + E) per component.
//
// Engineering addition (documented in DESIGN.md): because the DP is only
// optimal when the component is a tree, the new coloring of a component is
// kept only if it does not increase that component's true cost including
// the non-tree edges the MST dropped; otherwise the old colors stay. This
// makes every flip monotone.
#pragma once

#include <array>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "ocg/graph.hpp"

namespace sadp {

/// Aggregated edge between two hard-class super-vertices. `cost` is indexed
/// by assignmentIndex(classColorU, classColorV) and already folds in member
/// parities and the cut-risk penalty.
struct ReducedEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::array<std::int64_t, 4> cost{0, 0, 0, 0};
  std::int64_t weight = 0;  ///< MST significance (max finite cost spread)
  bool hard = false;
};

/// The reduced (super-vertex) view of an overlay constraint graph, or of
/// the connected components of it that one flip re-solves.
struct ReducedGraph {
  explicit ReducedGraph(
      std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : classRoot(mem), classColor(mem), selfCost(mem), edges(mem) {}

  /// Hard-class root vertex of each reduced vertex. Reduced vertices are
  /// indexed in ascending order of their smallest member vertex.
  std::pmr::vector<std::uint32_t> classRoot;
  /// Current color of each reduced vertex (its class-root color).
  std::pmr::vector<Color> classColor;
  /// Cost of per-vertex priors and intra-class non-hard edges under each
  /// class color (asymmetric scenario rules make the two choices differ
  /// even at fixed parity).
  std::pmr::vector<std::array<std::int64_t, 2>> selfCost;
  /// In ascending order of each class pair's first scenario edge.
  std::pmr::vector<ReducedEdge> edges;

  std::size_t classCount() const { return classColor.size(); }
};

/// Builds the reduced graph of the whole layer: one vertex per hard class;
/// all alive edges whose endpoints fall in different classes are
/// aggregated per class pair (parallel scenario edges sum their cost
/// vectors, mirroring the paper's multi-edge OCG).
ReducedGraph reduceGraph(const OverlayConstraintGraph& g);

/// Statistics of one flipping pass.
struct FlipStats {
  std::int64_t costBefore = 0;  ///< reduced-edge cost before, solved part
  std::int64_t costAfter = 0;   ///< reduced-edge cost after, solved part
  int components = 0;           ///< components solved
  int componentsImproved = 0;   ///< components whose coloring changed
};

/// Runs the flipping pipeline on the connected components of `g` that
/// changed since its last flip and applies the resulting colors; every
/// other component is already a fixed point of the pipeline, so the
/// colors equal a whole-layer pass (DESIGN.md §5.4/5.5). Uncolored classes
/// are colored too (the DP treats both options symmetrically). Adds the
/// reduced class count to the `flip.classes_reduced` counter.
FlipStats colorFlip(OverlayConstraintGraph& g);

/// Convenience: flips every layer of an overlay model; returns summed stats.
class OverlayModel;
FlipStats colorFlipAll(OverlayModel& model);

}  // namespace sadp
