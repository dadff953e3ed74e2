// test1_full and test3_alg1: one route of a paper circuit, timed call by
// call from outside the library: run() (the Algorithm 1 loop and the final
// flip), repairViolations(), physicalReport() (sign-off).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"
#include "sadp/decompose.hpp"
#include "self_time.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups measured per run on top of the one every repetition does.
constexpr int kExtraSetups = 20;

struct RouteWorkload {
  sadp::BenchmarkSpec spec;
  sadp::RouterOptions opts;
};

RouteWorkload routeWorkload(const Args& a) {
  RouteWorkload w;
  w.spec = sadp::paperBenchmark(a.workload == "test1_full" ? "Test1"
                                                           : "Test3");
  // The paper circuit itself unless a held-out design seed is asked for.
  // The run seed (--seed) does not change it: one route of these
  // circuits is chaotic in its pin placement, so routing a different
  // circuit per run would measure the circuits, not the program.
  if (a.designSeed != 0) w.spec.seed = a.designSeed;
  if (a.scale < 1.0) w.spec = w.spec.scaled(a.scale);
  // test3_alg1 is the paper's Algorithm 1 without the repair post-pass
  // (sadp_route_cli --no-repair); everything else is the default router.
  w.opts.enableRepair = a.workload == "test1_full";
  return w;
}

/// Everything a route must reproduce exactly: one mask fingerprint per
/// layer and the sadp_route_cli --csv row.
struct Signature {
  std::vector<std::uint64_t> layerFp;
  std::string csv;
  bool operator==(const Signature&) const = default;
};

struct RouteSample {
  double makeS = 0, setupS = 0;
  double loopS = 0, repairS = 0, signoffS = 0;
  double wallS = 0, cpuS = 0;  ///< run() through physicalReport()
  sadp::RoutingStats stats;
  sadp::OverlayReport report;
  Signature sig;
  std::map<std::string, double> counters;
  double expansionsP50 = 0;
  std::map<std::string, SelfTime> self;  ///< traced samples only
};

/// Generates the instance and routes it in a fresh single-thread context.
/// `monolithic` leaves repair inside run(), as sadp_route_cli does;
/// otherwise repair is its own call so that it can be timed.
RouteSample routeOnce(const RouteWorkload& w, bool monolithic, bool traced) {
  RouteSample s;
  sadp::RunContext ctx;
  ctx.setThreadCount(1);
  sadp::RunContext::Scope bind(ctx);

  const double t0 = wallSeconds();
  sadp::BenchmarkInstance inst = sadp::makeBenchmark(w.spec);
  const double t1 = wallSeconds();
  sadp::RouterOptions opts = w.opts;
  if (!monolithic) opts.enableRepair = false;
  sadp::OverlayAwareRouter router(inst.grid, inst.netlist, opts, &ctx);
  const double t2 = wallSeconds();
  s.makeS = t1 - t0;
  s.setupS = t2 - t0;

  if (traced) ctx.setTraceLevel(sadp::TraceLevel::Full);
  const double c0 = cpuSeconds();
  router.run();
  const double t3 = wallSeconds();
  if (!monolithic && w.opts.enableRepair) {
    router.repairViolations(w.opts.repairPasses);
  }
  const double t4 = wallSeconds();
  s.report = router.physicalReport();
  const double t5 = wallSeconds();
  const double c1 = cpuSeconds();
  s.loopS = t3 - t2;
  s.repairS = t4 - t3;
  s.signoffS = t5 - t4;
  s.wallS = t5 - t2;
  s.cpuS = c1 - c0;
  if (traced) {
    ctx.setTraceLevel(sadp::TraceLevel::Off);
    addSelfTimes(ctx.trace().collectEvents(), s.self);
  }

  // Outside the timed region: what the route must reproduce.
  s.stats = router.stats();
  for (int l = 0; l < inst.grid.layers(); ++l) {
    s.sig.layerFp.push_back(sadp::maskFingerprint(router.decompose(l)));
  }
  char row[160];
  std::snprintf(row, sizeof row, "%d,%g,%lld,%d,%d,%d", s.stats.totalNets,
                s.stats.routability(), (long long)s.report.sideOverlayNm,
                s.report.cutConflicts(), s.report.hardOverlays,
                ctx.threadCount());
  s.sig.csv = row;
  for (const auto& [name, value] : ctx.metrics().counterSnapshot()) {
    s.counters[name] = double(value);
  }
  std::vector<std::int64_t> buckets;
  addBuckets(
      ctx.metrics().findHistogram(sadp::astar_metric::kExpansionsPerRoute),
      buckets);
  s.expansionsP50 = bucketP50(buckets);
  return s;
}

/// Counts one attempted route; a signature differing from the monolithic
/// reference fails it.
void checkAgainst(const Signature& ref, const RouteSample& s,
                  const char* what, Result& r) {
  r.check(s.sig == ref, std::string(what) +
                            ": fingerprints/CSV differ from the monolithic "
                            "run (" + s.sig.csv + " vs " + ref.csv + ")");
}

}  // namespace

Result runRouteWorkload(const Args& args) {
  const RouteWorkload w = routeWorkload(args);
  Result r;
  Values v;

  std::vector<double> setups;
  for (int i = 0; i < kExtraSetups; ++i) {
    const double t0 = wallSeconds();
    sadp::RunContext ctx;
    ctx.setThreadCount(1);
    sadp::BenchmarkInstance inst = sadp::makeBenchmark(w.spec);
    sadp::OverlayAwareRouter router(inst.grid, inst.netlist, w.opts, &ctx);
    setups.push_back(wallSeconds() - t0);
  }

  // Reference: the route exactly as sadp_route_cli runs it, outside the
  // timed region (it also warms the allocator and caches).
  Signature ref = routeOnce(w, /*monolithic=*/true, false).sig;
  if (args.corruptFingerprint) ref.layerFp[0] ^= 1;

  if (!args.trace) {
    std::vector<RouteSample> samples;
    const double start = wallSeconds();
    do {
      samples.push_back(routeOnce(w, false, false));
      checkAgainst(ref, samples.back(), "repetition", r);
    } while (wallSeconds() - start < args.seconds);

    std::vector<double> wall, cpu;
    for (const RouteSample& s : samples) {
      setups.push_back(s.setupS);
      wall.push_back(s.wallS * 1e3);
      cpu.push_back(s.cpuS * 1e3);
    }
    double pct = 0;
    v["setup_s"] = median(setups);
    v["route_s"] = median(wall) * 1e-3;
    v["route_cpu_s"] = median(cpu) * 1e-3;
    v["op_p50_ms"] = median(wall);
    v["op_tail_ms"] = tailValue(wall, &pct);
    v["op_cpu_ms"] = median(cpu);
    v["peak_rss_mb"] = peakRssMb();
    const RouteSample& s = samples.front();
    v["routability_pct"] = s.stats.routability();
    v["violations"] = s.report.cutConflicts() + s.report.hardOverlays;
    v["overlay_nm"] = double(s.report.sideOverlayNm);
  } else {
    const RouteSample plain = routeOnce(w, false, false);
    checkAgainst(ref, plain, "untraced repetition", r);
    const RouteSample traced = routeOnce(w, false, true);
    checkAgainst(ref, traced, "traced repetition", r);
    r.check(traced.counters == plain.counters,
            "tracing changed the program's counters");
    v["netlist.make_s"] = plain.makeS;
    v["route.loop_s"] = plain.loopS;
    v["route.repair_s"] = plain.repairS;
    v["route.signoff_s"] = plain.signoffS;
    setCounterValues(plain.counters, plain.expansionsP50, traced.self, v);
    setSelfTimeValues(traced.self, traced.wallS, plain.wallS, v);
    v["ops"] = 2;
  }
  v["failed_op_share"] = double(r.failed) / double(r.attempted);
  emitMetrics(v, args.trace, r);
  return r;
}

}  // namespace perfbench
