#include "run/run_context.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace sadp {

namespace {

thread_local RunContext* t_current = nullptr;

/// Process-wide extra-worker pool. Reservations are serialized by a mutex
/// (one lock per parallelFor call, far off any hot path); the in-flight
/// count itself is atomic so globalExtraWorkersInFlight() can sample it
/// from monitoring/test threads without taking the lock.
std::mutex& poolMutex() {
  static std::mutex m;
  return m;
}
std::atomic<int> g_globalExtra{0};

/// SADP_THREADS > 0 wins, else hardware concurrency, floored at 1.
int detectThreads() {
  if (const char* env = std::getenv("SADP_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

RunContext::RunContext()
    : metrics_(new MetricsRegistry()),
      trace_(new TraceSink()),
      ownsRegistries_(true),
      envThreads_(detectThreads()) {}

RunContext::RunContext(DefaultTag)
    : metrics_(&MetricsRegistry::instance()),
      trace_(&TraceSink::defaultSink()),
      ownsRegistries_(false),
      envThreads_(detectThreads()) {}

RunContext::~RunContext() {
  if (ownsRegistries_) {
    delete trace_;
    delete metrics_;
  }
}

int RunContext::threadCount() const {
  const int n = explicitThreads_.load(std::memory_order_relaxed);
  return n > 0 ? n : envThreads_;
}

void RunContext::setThreadCount(int n) {
  explicitThreads_.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int RunContext::reserveExtraWorkers(int want) {
  if (want <= 0) return 0;
  const int ctxCap = threadCount() - 1;
  const int globalCap = defaultContext().threadCount() - 1;
  std::lock_guard<std::mutex> lock(poolMutex());
  const int mine = extraInFlight_.load(std::memory_order_relaxed);
  const int global = g_globalExtra.load(std::memory_order_relaxed);
  const int grant = std::min({want, ctxCap - mine, globalCap - global});
  if (grant <= 0) return 0;
  extraInFlight_.store(mine + grant, std::memory_order_relaxed);
  g_globalExtra.store(global + grant, std::memory_order_relaxed);
  return grant;
}

void RunContext::releaseExtraWorkers(int n) {
  if (n <= 0) return;
  std::lock_guard<std::mutex> lock(poolMutex());
  extraInFlight_.fetch_sub(n, std::memory_order_relaxed);
  g_globalExtra.fetch_sub(n, std::memory_order_relaxed);
}

void RunContext::resetForRun() {
  metrics_->reset();
  trace_->clear();
  scratchArena_.reset();
  graphArena_.reset();
}

RunContext& RunContext::defaultContext() {
  static RunContext* ctx = new RunContext(DefaultTag{});  // leaked
  return *ctx;
}

RunContext& RunContext::current() {
  RunContext* ctx = t_current;
  return ctx ? *ctx : defaultContext();
}

RunContext::Scope::Scope(RunContext& ctx) {
  prevCtx_ = t_current;
  t_current = &ctx;
  prevMetrics_ = bindThreadMetricsRegistry(ctx.metrics_);
  prevSink_ = bindThreadTraceSink(ctx.trace_);
}

RunContext::Scope::~Scope() {
  bindThreadTraceSink(prevSink_);
  bindThreadMetricsRegistry(prevMetrics_);
  t_current = prevCtx_;
}

int globalExtraWorkersInFlight() {
  return g_globalExtra.load(std::memory_order_relaxed);
}

}  // namespace sadp
