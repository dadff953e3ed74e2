// Shared pieces of the end-to-end route benchmark: arguments, clocks,
// order statistics and the metric list a workload fills in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  /// Run seed: the eco_240 edit stream. The paper circuits of the route
  /// workloads do not depend on it.
  std::uint64_t seed = 0;
  /// Held-out design: replaces the workload's design seed when nonzero.
  std::uint64_t designSeed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Instance scale in (0, 1] (BenchmarkSpec::scaled); the self-test runs
  /// every workload at a tiny scale.
  double scale = 1.0;
  /// ECO edits per stream on eco_240.
  int edits = 100;
  /// Self-test hook: flips one bit of the first layer fingerprint the
  /// benchmark records, so the correctness checks must report a mismatch.
  bool corruptFingerprint = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the correctness verdict, the operation
/// counts, the metrics in emission order, and a note per failed check.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failure of an operation already counted as attempted.
  void fail(std::string what) {
    correct = false;
    ++failed;
    mismatches.push_back(std::move(what));
  }
  /// Counts one attempted correctness check; `what` names its failure.
  void check(bool passed, std::string what) {
    ++attempted;
    if (!passed) fail(std::move(what));
  }
};

/// Monotonic wall clock and process CPU clock, in seconds.
double wallSeconds();
double cpuSeconds();
/// Peak resident set of this process, in MiB.
double peakRssMb();

double median(std::vector<double> v);
/// The highest percentile of `v` with at least ten samples above it, as
/// the value and the percentile; the maximum (percentile 100) when `v`
/// has fewer than eleven samples.
double tailValue(std::vector<double> v, double* percentile);

}  // namespace perfbench
