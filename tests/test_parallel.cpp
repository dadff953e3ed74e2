// Determinism contract of the per-layer parallel paths (DESIGN.md §5.6):
// parallelFor assigns iteration i to slot i and all reductions run
// sequentially in layer order, so every thread count must produce results
// identical to the serial run.
#include "util/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "run/run_context.hpp"

namespace sadp {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (int threads : {1, 2, 4, 7}) {
    setParallelThreads(threads);
    std::vector<std::atomic<int>> hits(97);
    parallelFor(97, [&](int i) { hits[std::size_t(i)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  setParallelThreads(0);
}

TEST(ParallelFor, EmptyAndSingle) {
  setParallelThreads(4);
  int calls = 0;
  parallelFor(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallelFor(1, [&](int i) { EXPECT_EQ(i, 0); ++calls; });
  EXPECT_EQ(calls, 1);
  setParallelThreads(0);
}

TEST(ParallelFor, PropagatesFirstException) {
  setParallelThreads(4);
  EXPECT_THROW(
      parallelFor(8,
                  [&](int i) {
                    if (i == 3) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  setParallelThreads(0);
}

TEST(ParallelFor, OverrideBeatsEnvironment) {
  setParallelThreads(3);
  EXPECT_EQ(parallelThreadCount(), 3);
  setParallelThreads(0);  // back to SADP_THREADS / hardware default
  EXPECT_GE(parallelThreadCount(), 1);
}

TEST(ParallelFor, ContextOverloadCoversIndices) {
  RunContext ctx;
  ctx.setThreadCount(3);
  std::vector<std::atomic<int>> hits(61);
  parallelFor(ctx, 61, [&](int i) {
    hits[std::size_t(i)].fetch_add(1);
    // Workers run with the loop's context bound.
    EXPECT_EQ(&RunContext::current(), &ctx);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The loop's counters land in the context's own registry, not the
  // process default.
  EXPECT_EQ(ctx.metrics().counter("parallel.calls").value(), 1);
  EXPECT_EQ(ctx.metrics().counter("parallel.jobs").value(), 61);
}

TEST(ParallelFor, TwoContextsNeverOversubscribeGlobalBudget) {
  // Two concurrent contexts, each entitled to threadCount()-1 extra
  // workers on their own, must together stay within the process-wide pool
  // of parallelThreadCount()-1 -- including across nested loops.
  setParallelThreads(4);  // global pool: at most 3 extra workers
  const int globalCap = parallelThreadCount() - 1;
  std::atomic<int> maxSeen{0};
  auto observe = [&]() {
    const int now = globalExtraWorkersInFlight();
    int prev = maxSeen.load();
    while (now > prev && !maxSeen.compare_exchange_weak(prev, now)) {
    }
  };
  auto driver = [&]() {
    RunContext ctx;
    ctx.setThreadCount(4);
    for (int round = 0; round < 8; ++round) {
      parallelFor(ctx, 16, [&](int) {
        observe();
        parallelFor(ctx, 4, [&](int) { observe(); });  // nested
      });
    }
  };
  std::thread a(driver), b(driver);
  a.join();
  b.join();
  EXPECT_LE(maxSeen.load(), globalCap);
  EXPECT_EQ(globalExtraWorkersInFlight(), 0);  // all budget returned
  setParallelThreads(0);
}

bool sameReport(const OverlayReport& a, const OverlayReport& b) {
  return a.sideOverlayNm == b.sideOverlayNm &&
         a.sideOverlaySections == b.sideOverlaySections &&
         a.hardOverlays == b.hardOverlays && a.tipOverlays == b.tipOverlays &&
         a.cutWidthConflicts == b.cutWidthConflicts &&
         a.cutSpaceConflicts == b.cutSpaceConflicts &&
         a.spacerOverTargetPx == b.spacerOverTargetPx;
}

TEST(ParallelDeterminism, PhysicalReportIdenticalAcrossThreadCounts) {
  BenchmarkInstance inst = makeBenchmark(paperBenchmark("Test1").scaled(0.1));
  OverlayAwareRouter router(inst.grid, inst.netlist);
  router.run();

  setParallelThreads(1);
  const OverlayReport serial = router.physicalReport();
  for (int threads : {2, 4, 8}) {
    setParallelThreads(threads);
    const OverlayReport parallel = router.physicalReport();
    EXPECT_TRUE(sameReport(serial, parallel)) << "threads=" << threads;
  }
  setParallelThreads(0);
}

TEST(ParallelDeterminism, FullRouteIdenticalAcrossThreadCounts) {
  // The repair pass consumes parallel pass-start snapshots; the whole
  // route (including repair) must still be byte-identical per thread count.
  const BenchmarkSpec spec = paperBenchmark("Test1").scaled(0.06);

  setParallelThreads(1);
  BenchmarkInstance a = makeBenchmark(spec);
  OverlayAwareRouter ra(a.grid, a.netlist);
  const RoutingStats sa = ra.run();
  const OverlayReport pa = ra.physicalReport();

  setParallelThreads(4);
  BenchmarkInstance b = makeBenchmark(spec);
  OverlayAwareRouter rb(b.grid, b.netlist);
  const RoutingStats sb = rb.run();
  const OverlayReport pb = rb.physicalReport();
  setParallelThreads(0);

  EXPECT_EQ(sa.routedNets, sb.routedNets);
  EXPECT_EQ(sa.wirelength, sb.wirelength);
  EXPECT_EQ(sa.vias, sb.vias);
  EXPECT_TRUE(sameReport(pa, pb));
}

}  // namespace
}  // namespace sadp
