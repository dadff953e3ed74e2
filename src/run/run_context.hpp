// Per-run execution context: the ownership root that makes the pipeline
// re-entrant (DESIGN.md §5.8).
//
// A RunContext owns everything one routing run measures or schedules with:
//
//   - a MetricsRegistry   (counters/histograms; fresh per run, so two
//                          sequential runs never double-count and two
//                          concurrent runs never cross-talk),
//   - a TraceSink         (trace level, span aggregates, event buffers),
//   - a thread budget     (explicit thread count > cached SADP_THREADS >
//                          hardware concurrency, plus the nested-worker
//                          reservation state parallelFor draws from).
//
// Every pipeline layer takes the context explicitly (router, A*, mask
// decomposition, baselines, eval, parallelFor). Code that predates the
// context -- SADP_SPAN call sites, metricsCounter(), the parallelFor
// overload without a context -- resolves through the calling thread's
// bound context (RunContext::Scope) and falls back to defaultContext(),
// which wraps the legacy process-wide singletons. parallelFor workers
// bind their loop's context, so a whole run traced under one context
// stays in that context across any nesting of parallel loops.
//
// Thread-safety: a context may be shared by the threads of its own run
// (parallelFor does exactly that); distinct concurrent runs must use
// distinct contexts -- that is the isolation contract, stress-checked by
// tests/test_concurrent.cpp. A non-default context must outlive all work
// started under it.
#pragma once

#include <atomic>
#include <string>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/arena.hpp"

namespace sadp {

class RunContext {
 public:
  /// Fresh registries; thread count from SADP_THREADS (parsed once here)
  /// else hardware concurrency; trace level Off.
  RunContext();
  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  MetricsRegistry& metrics() const { return *metrics_; }
  TraceSink& trace() const { return *trace_; }
  void setTraceLevel(TraceLevel lvl) { trace_->setLevel(lvl); }
  TraceLevel traceLevel() const { return trace_->level(); }

  /// Effective worker-thread count of this context. Precedence: explicit
  /// setThreadCount() > SADP_THREADS (cached once at construction) >
  /// std::thread::hardware_concurrency().
  int threadCount() const;
  /// Explicit override; n <= 0 restores the cached env/hardware default.
  void setThreadCount(int n);

  /// Nested-worker budget (parallelFor's reservation protocol): grants up
  /// to `want` extra (non-caller) workers, bounded by BOTH this context's
  /// budget of threadCount() - 1 and the process-wide pool of
  /// defaultContext().threadCount() - 1, so any number of concurrent
  /// contexts never oversubscribes the machine. Never blocks; a loop that
  /// gets 0 runs inline.
  int reserveExtraWorkers(int want);
  void releaseExtraWorkers(int n);

  /// Default patterning backend for work run under this context, by
  /// registry name ("sadp2", "tpl3"; empty = sadp2). Consumed by the
  /// router when RouterOptions::backend is null -- the service sets it per
  /// session from the load request, the CLI from --backend. Install
  /// between runs only: a plain string, deliberately unsynchronized, like
  /// every other between-runs knob here.
  const std::string& patterningBackendName() const {
    return patterningBackend_;
  }
  void setPatterningBackendName(std::string name) {
    patterningBackend_ = std::move(name);
  }

  /// Per-run bump arenas (DESIGN.md §5.9). Both are touched only by the
  /// run's driving thread -- the router / A* / coloring path; parallelFor
  /// workers never allocate from them. `scratchArena` is rewound by
  /// ArenaScope at the end of every route()/colorFlip() call, so a warm
  /// run allocates nothing from the global allocator; `graphArena` backs
  /// allocations whose lifetime is the run itself (OCG edge/adjacency
  /// storage) and is reclaimed when the context dies.
  Arena& scratchArena() { return scratchArena_; }
  Arena& graphArena() { return graphArena_; }

  /// Restores the context to a fresh-run state: zeroes every counter and
  /// histogram, drops trace aggregates/events, and reclaims both arenas.
  /// Only valid between runs -- no work may be in flight under this
  /// context, no ArenaScope open, and nothing allocated from graphArena
  /// may still be referenced (a long-lived service session calls this
  /// before each replay so per-request metrics start at zero and the
  /// previous replay's OCG storage is reclaimed instead of accreting).
  void resetForRun();

  /// The process-default context: wraps MetricsRegistry::instance() and
  /// TraceSink::defaultSink(), honors setParallelThreads(). What unbound
  /// threads and pre-context call sites resolve to.
  static RunContext& defaultContext();
  /// The calling thread's bound context (defaultContext() when unbound).
  static RunContext& current();

  /// Binds a context to the calling thread for a scope: SADP_SPAN,
  /// metricsCounter() and context-less parallelFor inside the scope
  /// resolve to it. Nests; restores the previous binding on destruction.
  class Scope {
   public:
    explicit Scope(RunContext& ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    RunContext* prevCtx_;
    MetricsRegistry* prevMetrics_;
    TraceSink* prevSink_;
  };

 private:
  struct DefaultTag {};
  explicit RunContext(DefaultTag);

  MetricsRegistry* metrics_;  ///< owned unless this is the default context
  TraceSink* trace_;          ///< owned unless this is the default context
  bool ownsRegistries_;
  int envThreads_;  ///< SADP_THREADS > 0, else hardware; parsed at ctor
  std::atomic<int> explicitThreads_{0};
  std::atomic<int> extraInFlight_{0};
  Arena scratchArena_;  ///< rewound per search/flip; see scratchArena()
  Arena graphArena_;    ///< run-lifetime allocations; see graphArena()
  std::string patterningBackend_;  ///< empty = sadp2; see accessor above
};

/// Extra (non-caller) parallelFor workers currently alive across every
/// context (test/monitoring hook; bounded by
/// RunContext::defaultContext().threadCount() - 1).
int globalExtraWorkersInFlight();

}  // namespace sadp
