// Synthetic benchmark generator mirroring the paper's Test1..Test10
// circuits (Tables III/IV): same net counts, die sizes (at 40 nm pitch),
// three routing layers; Test6..Test10 add multiple pin candidate locations.
//
// The paper's benchmarks are proprietary scaled-down industrial designs;
// this generator is the documented substitution (DESIGN.md §7): it matches
// the published net-count / die-area statistics and is fully seeded so every
// experiment is reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace sadp {

/// Parameters of one synthetic circuit.
struct BenchmarkSpec {
  std::string name;
  int netCount = 0;
  Track width = 0;       ///< tracks
  Track height = 0;      ///< tracks
  int layers = 3;
  int pinCandidates = 1; ///< 1 = fixed pins; >1 = multi-candidate benchmarks
  double blockageFraction = 0.02;  ///< fraction of layer-0 area blocked
  std::uint64_t seed = 1;

  /// Scales net count and die edge by sqrt(f)/f to shrink runtime while
  /// keeping net density identical. f in (0, 1].
  BenchmarkSpec scaled(double f) const;
};

/// Bounds of an explicitly sized design, shared by the service's `load`
/// request and the CLI's --width/--height/--layers/--seed-demo (the
/// paper's largest benchmark is 28000 nets on 900^2 tracks;
/// makeBenchmark makes at most 25 candidates per pin).
inline constexpr std::int64_t kLoadMaxNets = 100000;
inline constexpr std::int64_t kLoadMinEdge = 8;
inline constexpr std::int64_t kLoadMaxEdge = 2048;
inline constexpr std::int64_t kLoadMaxLayers = 16;
inline constexpr std::int64_t kLoadMaxPinCandidates = 25;
/// Bounds of the negotiation knobs (service `negotiate_iters` /
/// `history_cost`, CLI --negotiate-iters / --history-cost). Together they
/// cap a cell's history at 1024 * 2^16; times the largest A* fixed-point
/// scale (2^12) that is 2^38, inside the 2^40 the search accepts.
inline constexpr std::int64_t kLoadMaxNegotiateIters = 1024;
inline constexpr double kLoadMaxHistoryCost = 65536.0;

/// The ten published circuits. Index 0..4 = Test1..Test5 (fixed pins,
/// Table III); 5..9 = Test6..Test10 (multi-candidate pins, Table IV).
std::vector<BenchmarkSpec> paperBenchmarks();

/// Looks up a paper benchmark by name ("Test1".."Test10").
BenchmarkSpec paperBenchmark(const std::string& name);

/// A generated routing problem: the grid (with blockages painted) plus the
/// netlist. The grid does NOT yet have pins occupied; the router owns that.
struct BenchmarkInstance {
  BenchmarkSpec spec;
  RoutingGrid grid;
  Netlist netlist;
};

/// Deterministically generates an instance from a spec. Pins are placed on
/// distinct nodes of layer 0, biased to local nets (mean Manhattan length
/// a few tens of tracks) like standard-cell detailed routing.
BenchmarkInstance makeBenchmark(const BenchmarkSpec& spec);

}  // namespace sadp
