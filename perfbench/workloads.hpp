// The benchmark's three workloads. Each fills a Result with every
// end-to-end metric (untraced run) or every per-layer metric (traced run);
// a metric a workload has no input for reads 0 (see README.md).
#pragma once

#include "bench.hpp"

namespace perfbench {

/// test1_full (repair on) and test3_alg1 (Algorithm 1 only): one route of
/// a paper circuit through the library calls, repeated for the run length.
Result runRouteWorkload(const Args& args);

/// eco_240: a closed-loop client driving an in-process RouteServer over a
/// Unix socket with a seeded stream of move_pin edits.
Result runEcoWorkload(const Args& args);

}  // namespace perfbench
