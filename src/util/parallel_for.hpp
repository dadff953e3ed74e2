// Minimal data-parallel loop utility for the embarrassingly-parallel
// per-layer stages (full-chip decomposition, physical reports).
//
// Determinism contract: parallelFor only changes WHO computes an index,
// never the result -- callers write iteration i's output into slot i and
// reduce sequentially afterwards, so any thread count (including 1)
// produces byte-identical results.
#pragma once

#include <functional>

namespace sadp {

class RunContext;

/// Worker count of the default run context (the value context-less
/// parallelFor calls from unbound threads use): the setParallelThreads()
/// override if set, else the SADP_THREADS environment variable, else
/// std::thread::hardware_concurrency().
int parallelThreadCount();

/// Programmatic override of the default context's worker count; n <= 0
/// restores the environment/hardware default.
void setParallelThreads(int n);

/// Invokes fn(0) .. fn(n-1), distributing indices over up to
/// ctx.threadCount() threads. fn must be safe to call concurrently for
/// distinct indices. Exceptions thrown by fn are rethrown (first one wins)
/// after all workers finish. Worker threads run with ctx bound
/// (RunContext::Scope), so spans and counters inside fn land in ctx's
/// registries.
///
/// Worker budget: extra workers are drawn from ctx's budget of
/// ctx.threadCount() - 1, itself bounded by the process-wide pool of
/// parallelThreadCount() - 1 threads shared by every context -- so the
/// per-layer loops of concurrent runs (batch jobs, service sessions)
/// never oversubscribe the machine. parallelFor may also be called from
/// inside another parallelFor body: the inner loop draws from the same
/// budget, so total live workers stay bounded at any nesting depth. A loop that gets no budget runs inline on the
/// calling thread -- the same result by the determinism contract above.
void parallelFor(RunContext& ctx, int n, const std::function<void(int)>& fn);

/// Context-less shim: runs under the calling thread's bound context
/// (RunContext::current(); the default context when unbound).
void parallelFor(int n, const std::function<void(int)>& fn);

}  // namespace sadp
