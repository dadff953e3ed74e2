#include "metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <set>

namespace perfbench {

namespace {

/// Spans whose self time is reported by name; the rest of the program's
/// spans are summed into other_spans.self_s.
const char* const kSelfSpans[] = {
    "astar.route",       "router.reroute_away", "router.cut_check",
    "decompose",         "decompose.paint",     "decompose.assists",
    "decompose.merge",   "decompose.spacer",    "decompose.meter",
    "decompose.mrc",     "router.net_flip",     "router.net",
    "router.add_net",
};

std::vector<MetricDef> makePerLayer() {
  std::vector<MetricDef> v = {
      {"netlist.make_s", "s"},
      {"route.loop_s", "s"},
      {"route.repair_s", "s"},
      {"route.signoff_s", "s"},
      {"service.server_ms", "ms"},
      {"service.overhead_ms", "ms"},
      {"astar.routes", "count"},
      {"astar.expansions", "count"},
      {"astar.expansions_per_route.p50", "count"},
      {"router.ripups", "count"},
      {"router.cut_rejects", "count"},
      {"router.oddcycle_rejects", "count"},
      {"router.flips", "count"},
      {"repair.reroute_attempts", "count"},
      {"repair.reroutes", "count"},
      {"repair.reroute_keep_ratio", "ratio"},
      {"decompose.calls", "count"},
      {"mask_cache.hit_ratio", "ratio"},
      {"mask_cache.bytes", "B"},
      {"mask_cache.evictions", "count"},
      {"memo.hit_ratio", "ratio"},
      {"service.nets_dirty", "nets/edit"},
  };
  for (const char* s : kSelfSpans) {
    v.push_back({std::string(s) + ".self_s", "s"});
  }
  v.push_back({"other_spans.self_s", "s"});
  v.push_back({"bench.self_s", "s"});
  v.push_back({"trace.traced_s", "s"});
  v.push_back({"trace_overhead_pct", "%"});
  v.push_back({"failed_op_share", "ratio"});
  v.push_back({"ops", "count"});
  return v;
}

}  // namespace

const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> v = {
      {"setup_s", "s"},         {"route_s", "s"},
      {"route_cpu_s", "s"},     {"op_p50_ms", "ms"},
      {"op_tail_ms", "ms"},     {"op_cpu_ms", "ms"},
      {"peak_rss_mb", "MiB"},   {"routability_pct", "%"},
      {"violations", "count"},  {"overlay_nm", "nm"},
  };
  return v;
}

const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> v = makePerLayer();
  return v;
}

void emitMetrics(const Values& values, bool trace, Result& r) {
  const std::vector<MetricDef>& table =
      trace ? perLayerMetrics() : endToEndMetrics();
  std::set<std::string> known;
  for (const auto* t : {&endToEndMetrics(), &perLayerMetrics()}) {
    for (const MetricDef& d : *t) known.insert(d.name);
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
      std::abort();
    }
  }
  for (const MetricDef& d : table) {
    const auto it = values.find(d.name);
    r.add(d.name, it == values.end() ? 0.0 : it->second, d.unit);
  }
}

void setSelfTimeValues(const std::map<std::string, SelfTime>& self,
                       double tracedWallS, double untracedWallS,
                       Values& v) {
  std::int64_t spanSelfNs = 0;
  std::int64_t otherNs = 0;
  for (const auto& [name, st] : self) {
    spanSelfNs += st.selfNs;
    bool named = false;
    for (const char* s : kSelfSpans) named = named || name == s;
    if (!named) otherNs += st.selfNs;
  }
  for (const char* s : kSelfSpans) {
    const auto it = self.find(s);
    v[std::string(s) + ".self_s"] =
        it == self.end() ? 0.0 : double(it->second.selfNs) * 1e-9;
  }
  v["other_spans.self_s"] = double(otherNs) * 1e-9;
  v["bench.self_s"] = tracedWallS - double(spanSelfNs) * 1e-9;
  v["trace.traced_s"] = tracedWallS;
  v["trace_overhead_pct"] =
      untracedWallS > 0.0 ? 100.0 * (tracedWallS - untracedWallS) /
                                untracedWallS
                          : 0.0;
}

void setCounterValues(const std::map<std::string, double>& counters,
                      double expansionsP50,
                      const std::map<std::string, SelfTime>& self, Values& v) {
  const auto reroute = self.find("router.reroute_away");
  const double rerouteSpans =
      reroute == self.end() ? 0.0 : double(reroute->second.count);
  auto get = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  for (const char* name :
       {"astar.routes", "astar.expansions", "router.ripups",
        "router.cut_rejects", "router.oddcycle_rejects", "router.flips",
        "repair.reroutes", "decompose.calls"}) {
    v[name] = get(name);
  }
  v["astar.expansions_per_route.p50"] = expansionsP50;
  v["repair.reroute_attempts"] = rerouteSpans;
  v["repair.reroute_keep_ratio"] =
      rerouteSpans > 0.0 ? get("repair.reroutes") / rerouteSpans : 0.0;
}

void addBuckets(const sadp::Histogram* h, std::vector<std::int64_t>& buckets) {
  buckets.resize(sadp::Histogram::kBuckets, 0);
  if (h == nullptr) return;
  for (int b = 0; b < sadp::Histogram::kBuckets; ++b) {
    buckets[std::size_t(b)] += h->bucketCount(b);
  }
}

double bucketP50(const std::vector<std::int64_t>& buckets) {
  std::int64_t total = 0;
  for (const std::int64_t n : buckets) total += n;
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (total > 0 && 2 * seen >= total) {
      return double(sadp::Histogram::bucketLo(int(b)));
    }
  }
  return 0.0;
}

}  // namespace perfbench
