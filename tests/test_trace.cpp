// Tests of the run-trace & metrics subsystem (DESIGN.md §5.7): span
// nesting/ordering, the null-sink fast path, counter determinism across
// thread counts, histogram bucketing, and the Chrome trace JSON export.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/benchmark.hpp"
#include "route/router.hpp"
#include "trace/metrics.hpp"
#include "util/parallel_for.hpp"

namespace sadp {
namespace {

/// Scoped level change; always restores Off so tests compose.
struct LevelGuard {
  explicit LevelGuard(TraceLevel lvl) {
    clearTrace();
    setTraceLevel(lvl);
  }
  ~LevelGuard() { setTraceLevel(TraceLevel::Off); }
};

void spinNs(std::int64_t ns) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
  }
}

const TraceEvent* findEvent(const std::vector<TraceEvent>& evs,
                            const std::string& name) {
  for (const TraceEvent& e : evs) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(Trace, SpanNestingAndOrdering) {
  LevelGuard guard(TraceLevel::Full);
  {
    SADP_SPAN("test.outer");
    spinNs(20000);
    {
      SADP_SPAN_ARG("test.inner", 42);
      spinNs(20000);
    }
    spinNs(20000);
  }
  const std::vector<TraceEvent> evs = collectTraceEvents();
  const TraceEvent* outer = findEvent(evs, "test.outer");
  const TraceEvent* inner = findEvent(evs, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Sorted (tid, startNs, -durNs): the parent precedes its child, and the
  // child's interval nests strictly inside the parent's.
  EXPECT_LT(outer - evs.data(), inner - evs.data());
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_LE(outer->startNs, inner->startNs);
  EXPECT_GE(outer->startNs + outer->durNs, inner->startNs + inner->durNs);
  EXPECT_FALSE(outer->hasArg);
  EXPECT_TRUE(inner->hasArg);
  EXPECT_EQ(inner->arg, 42);
}

TEST(Trace, NullSinkRecordsNothing) {
  clearTrace();
  ASSERT_EQ(traceLevel(), TraceLevel::Off);
  {
    SADP_SPAN("test.off_span");
    SADP_SPAN_ARG("test.off_arg", 7);
  }
  EXPECT_TRUE(collectTraceEvents().empty());
  for (const SpanAggregate& a : spanAggregates()) {
    EXPECT_NE(a.name, "test.off_span");
    EXPECT_NE(a.name, "test.off_arg");
  }
  // The macro interns its name even when disabled (one-time, per site).
  const auto names = registeredSpanNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.off_span"),
            names.end());
}

TEST(Trace, AggregateLevelCountsWithoutBufferingEvents) {
  LevelGuard guard(TraceLevel::Aggregate);
  for (int i = 0; i < 3; ++i) {
    SADP_SPAN("test.agg");
    spinNs(10000);
  }
  EXPECT_TRUE(collectTraceEvents().empty());
  const auto aggs = spanAggregates();
  const auto it = std::find_if(
      aggs.begin(), aggs.end(),
      [](const SpanAggregate& a) { return a.name == "test.agg"; });
  ASSERT_NE(it, aggs.end());
  EXPECT_EQ(it->count, 3);
  EXPECT_GT(it->wallNs, 0);
}

TEST(Trace, WorkerThreadBuffersOutliveThreads) {
  LevelGuard guard(TraceLevel::Full);
  setParallelThreads(4);
  parallelFor(8, [&](int) {
    SADP_SPAN("test.worker_body");
    spinNs(5000);
  });
  setParallelThreads(0);
  const std::vector<TraceEvent> evs = collectTraceEvents();
  int bodies = 0;
  for (const TraceEvent& e : evs) {
    if (e.name == "test.worker_body") ++bodies;
  }
  EXPECT_EQ(bodies, 8);  // all 8 jobs traced even though workers exited
}

TEST(Metrics, HistogramLogBuckets) {
  Histogram h;
  EXPECT_EQ(Histogram::bucketLo(0), 0);
  EXPECT_EQ(Histogram::bucketLo(1), 1);
  EXPECT_EQ(Histogram::bucketLo(4), 8);
  h.add(0);    // bucket 0
  h.add(1);    // bucket 1: [1,2)
  h.add(9);    // bucket 4: [8,16)
  h.add(15);   // bucket 4
  h.add(-3);   // bucket 0
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 0 + 1 + 9 + 15 - 3);
  EXPECT_EQ(h.bucketCount(0), 2);
  EXPECT_EQ(h.bucketCount(1), 1);
  EXPECT_EQ(h.bucketCount(4), 2);
  h.reset();
  EXPECT_EQ(h.count(), 0);
}

// ---- Counter determinism across thread counts ------------------------------

std::vector<CounterSample> routeAndSnapshot(int threads) {
  MetricsRegistry::instance().resetAll();
  clearTrace();
  setParallelThreads(threads);
  BenchmarkInstance inst =
      makeBenchmark(paperBenchmark("Test1").scaled(0.06));
  OverlayAwareRouter router(inst.grid, inst.netlist);
  router.run();
  router.physicalReport();
  setParallelThreads(0);
  return MetricsRegistry::instance().counterSnapshot();
}

TEST(Metrics, CountersByteIdenticalAcrossThreadCounts) {
  // The determinism contract (DESIGN.md §5.7): counters measure properties
  // of the work itself, so SADP_THREADS must not change any total.
  const std::vector<CounterSample> one = routeAndSnapshot(1);
  ASSERT_FALSE(one.empty());
  bool sawAstar = false;
  bool sawFlip = false;
  for (const auto& [name, value] : one) {
    if (name == "astar.routes") sawAstar = value > 0;
    if (name == "flip.classes_reduced") sawFlip = value > 0;
  }
  EXPECT_TRUE(sawAstar);
  EXPECT_TRUE(sawFlip);
  for (int threads : {2, 4}) {
    const std::vector<CounterSample> other = routeAndSnapshot(threads);
    ASSERT_EQ(one.size(), other.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i].first, other[i].first) << "threads=" << threads;
      EXPECT_EQ(one[i].second, other[i].second)
          << "counter " << one[i].first << " threads=" << threads;
    }
  }
}

// ---- Chrome trace JSON -----------------------------------------------------

/// Minimal recursive-descent JSON parser (objects/arrays/strings/numbers/
/// literals); only validates structure and extracts string values by key.
struct JsonParser {
  const std::string& s;
  std::size_t i = 0;

  explicit JsonParser(const std::string& text) : s(text) {}

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool parseString(std::string* out) {
    ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    std::string v;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      v.push_back(s[i++]);
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    if (out) *out = std::move(v);
    return true;
  }
  bool parseNumber() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    return i > start;
  }
  bool parseValue() {
    ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{') return parseObject();
    if (c == '[') return parseArray();
    if (c == '"') return parseString(nullptr);
    if (s.compare(i, 4, "true") == 0) {
      i += 4;
      return true;
    }
    if (s.compare(i, 5, "false") == 0) {
      i += 5;
      return true;
    }
    if (s.compare(i, 4, "null") == 0) {
      i += 4;
      return true;
    }
    return parseNumber();
  }
  bool parseObject() {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    do {
      if (!parseString(nullptr)) return false;
      if (!eat(':')) return false;
      if (!parseValue()) return false;
    } while (eat(','));
    return eat('}');
  }
  bool parseArray() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    do {
      if (!parseValue()) return false;
    } while (eat(','));
    return eat(']');
  }
};

TEST(Trace, ChromeTraceJsonParsesAndReferencesRegisteredNames) {
  LevelGuard guard(TraceLevel::Full);
  {
    SADP_SPAN("test.export_outer");
    SADP_SPAN_ARG("test.export_inner", -5);
    spinNs(5000);
  }
  std::ostringstream os;
  writeChromeTrace(os);
  const std::string text = os.str();

  // The whole document is one valid JSON value with no trailing garbage.
  JsonParser p(text);
  ASSERT_TRUE(p.parseValue()) << text.substr(0, 200);
  p.ws();
  EXPECT_EQ(p.i, text.size());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);

  // Every event's "name" is a registered span name.
  const auto registered = registeredSpanNames();
  std::size_t events = 0;
  const std::string needle = "\"name\":\"";
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos)) {
    pos += needle.size();
    const std::size_t end = text.find('"', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string name = text.substr(pos, end - pos);
    EXPECT_NE(std::find(registered.begin(), registered.end(), name),
              registered.end())
        << "unregistered name in trace: " << name;
    ++events;
    pos = end;
  }
  EXPECT_GE(events, 2u);
}

}  // namespace
}  // namespace sadp
