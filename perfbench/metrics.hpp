// The benchmark's metric tables (names and units, in emission order) and
// the per-layer figures every workload derives from a traced run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "self_time.hpp"
#include "trace/metrics.hpp"

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Reported by untraced runs (--trace 0).
const std::vector<MetricDef>& endToEndMetrics();
/// Reported by traced runs (--trace 1).
const std::vector<MetricDef>& perLayerMetrics();

/// Metric values by name, filled by a workload.
using Values = std::map<std::string, double>;

/// Moves every metric of the selected table from `values` into `r` in
/// table order; a metric the workload did not set reads 0. Aborts on a
/// name that is in neither table (a typo in a workload).
void emitMetrics(const Values& values, bool trace, Result& r);

/// Self-time figures of one traced run: `<span>.self_s` for the spans the
/// benchmark tracks, other_spans.self_s for the rest, bench.self_s for the
/// traced wall time outside every program span, trace.traced_s, and
/// trace_overhead_pct against the untraced wall time of the same work.
void setSelfTimeValues(const std::map<std::string, SelfTime>& self,
                       double tracedWallS, double untracedWallS,
                       Values& v);

/// Exact counters of one run from its metrics registry snapshot, plus
/// repair.reroute_attempts: the router.reroute_away span count of a traced
/// run of the same work.
void setCounterValues(const std::map<std::string, double>& counters,
                      double expansionsP50,
                      const std::map<std::string, SelfTime>& self, Values& v);

/// Adds a log2 histogram's bucket counts into `buckets` (grown to
/// Histogram::kBuckets); a null histogram adds nothing.
void addBuckets(const sadp::Histogram* h, std::vector<std::int64_t>& buckets);
/// Lower bound of the bucket holding the median sample (0 when empty).
double bucketP50(const std::vector<std::int64_t>& buckets);

}  // namespace perfbench
