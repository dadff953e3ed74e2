// eco_240: the routing service under a closed-loop ECO client. One client
// thread talks NDJSON to an in-process RouteServer (1 worker, default
// MaskCache budget) over a Unix socket: load, one cold route, then a
// seeded stream of one-track move_pin edits, each undone by the next
// request. Every repetition starts a fresh server, so each one meets the
// same cold caches.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "netlist/benchmark.hpp"
#include "route/astar.hpp"
#include "sadp/mask_cache.hpp"
#include "self_time.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-ups (server start + load) and cold routes measured after each edit
/// stream, on top of the one the stream does.
constexpr int kExtraSetupsPerStream = 6;

/// The BENCH_service.json design: 240 nets on 160 x 160 tracks, 3 layers.
sadp::BenchmarkSpec ecoSpec(std::uint64_t designSeed, double scale) {
  sadp::BenchmarkSpec s;
  s.name = "eco";
  s.netCount = 240;
  s.width = s.height = 160;
  s.layers = 3;
  s.seed = designSeed != 0 ? designSeed : 4;
  return scale < 1.0 ? s.scaled(scale) : s;
}

struct Edit {
  std::string net;
  int pin = 0;
  sadp::GridNode to;
};

/// The loaded design: the generator's nets in its order (net ids are list
/// positions), and the load request that makes the server build it.
struct Design {
  sadp::BenchmarkSpec spec;
  std::vector<sadp::NetSpec> nets;
  std::string loadRequest;
};

Design makeDesign(const Args& a) {
  Design d;
  d.spec = ecoSpec(a.designSeed, a.scale);
  for (const sadp::Net& n : sadp::makeBenchmark(d.spec).netlist.nets) {
    sadp::NetSpec s{n.name, {n.source, n.target}};
    s.pins.insert(s.pins.end(), n.taps.begin(), n.taps.end());
    d.nets.push_back(std::move(s));
  }
  d.loadRequest = "{\"op\":\"load\",\"session\":\"eco\",\"nets\":" +
                  std::to_string(d.spec.netCount) +
                  ",\"width\":" + std::to_string(d.spec.width) +
                  ",\"height\":" + std::to_string(d.spec.height) +
                  ",\"layers\":" + std::to_string(d.spec.layers) +
                  ",\"seed\":" + std::to_string(d.spec.seed) +
                  ",\"threads\":1}";
  return d;
}

/// Round `round` of run seed `seed`: one edit/undo pair per net, the nets
/// in a seeded order, cut into streams of `pairs` pairs. Each edit follows
/// the service_client.py bench recipe (one of the net's pins, uniformly;
/// the pin moves one track to one of its 8 neighbours, clamped to the
/// die) and is followed by the edit that moves the pin back.
/// The design never drifts more than one edit from the loaded one, so the
/// cost of an edit depends on where it lands, not on the edits before it.
/// Where it lands is mostly which net it moves, so every round moves each
/// net once: a seed changes the pins and directions, not the mix of cheap
/// and dear nets.
std::vector<std::vector<Edit>> makeRound(const Design& d, std::uint64_t seed,
                                         std::uint64_t round, int pairs) {
  std::seed_seq seq{std::uint32_t(seed), std::uint32_t(seed >> 32),
                    std::uint32_t(round)};
  std::mt19937_64 rng(seq);
  std::vector<std::size_t> order(d.nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  static constexpr int kDx[8] = {-1, 0, 1, -1, 1, -1, 0, 1};
  static constexpr int kDy[8] = {-1, -1, -1, 0, 0, 1, 1, 1};
  std::vector<std::vector<Edit>> streams;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i % std::size_t(pairs) == 0) streams.emplace_back();
    const sadp::NetSpec& n = d.nets[order[i]];
    const int pin = int(rng() % n.pins.size());
    const int dir = int(rng() % 8);
    const sadp::GridNode from = n.pins[std::size_t(pin)].candidates.front();
    sadp::GridNode to = from;
    to.x = std::clamp<sadp::Track>(from.x + kDx[dir], 0, d.spec.width - 1);
    to.y = std::clamp<sadp::Track>(from.y + kDy[dir], 0, d.spec.height - 1);
    streams.back().push_back({n.name, pin, to});
    streams.back().push_back({n.name, pin, from});
  }
  return streams;
}

std::string editRequest(const Edit& e) {
  return "{\"op\":\"edit\",\"session\":\"eco\",\"kind\":\"move_pin\","
         "\"net\":\"" + e.net + "\",\"pin_index\":" + std::to_string(e.pin) +
         ",\"pin\":[" + std::to_string(e.to.x) + "," + std::to_string(e.to.y) +
         "," + std::to_string(e.to.layer) + "]}";
}

/// Blocking NDJSON client over a Unix socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    // The listener comes up on the server thread; retry for up to 10 s.
    for (int attempt = 0; attempt < 2000; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      ::usleep(5000);
    }
    throw std::runtime_error("cannot connect to " + path);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and returns the parsed reply.
  sadp::JsonValue call(const std::string& request) {
    const std::string line = request + "\n";
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n <= 0) throw std::runtime_error("write to server failed");
      off += std::size_t(n);
    }
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("server closed the connection");
      buf_.append(chunk, std::size_t(n));
    }
    const std::string reply = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    std::string err;
    std::optional<sadp::JsonValue> v = sadp::parseJson(reply, &err);
    if (!v) throw std::runtime_error("bad reply: " + err);
    return std::move(*v);
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool ok(const sadp::JsonValue& r) {
  const sadp::JsonValue* v = r.find("ok");
  return v != nullptr && v->isBool() && v->asBool();
}

double num(const sadp::JsonValue& r, std::string_view key) {
  const sadp::JsonValue* v = r.find(key);
  return v != nullptr && v->isNumber() ? v->asDouble() : 0.0;
}

std::int64_t integer(const sadp::JsonValue& r, std::string_view key) {
  const sadp::JsonValue* v = r.find(key);
  return v != nullptr && v->isNumber() ? v->asInt() : 0;
}

std::string str(const sadp::JsonValue& r, std::string_view key) {
  const sadp::JsonValue* v = r.find(key);
  return v != nullptr && v->isString() ? v->asString() : std::string();
}

/// A RouteServer on its own thread.
class LiveServer {
 public:
  explicit LiveServer(const std::string& socketPath) {
    sadp::ServerOptions so;
    so.socketPath = socketPath;
    so.workers = 1;
    server_ = std::make_unique<sadp::RouteServer>(so);
    thread_ = std::thread([this] {
      try {
        exitCode_ = server_->serve();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: server failed: %s\n", e.what());
        exitCode_ = -1;
      }
    });
  }
  /// Waits for serve() to return (after a shutdown request and once every
  /// client has disconnected); returns its exit code.
  int join() {
    thread_.join();
    return exitCode_;
  }
  ~LiveServer() {
    if (thread_.joinable()) {
      server_->requestStop();
      thread_.join();
    }
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

 private:
  std::unique_ptr<sadp::RouteServer> server_;
  int exitCode_ = 0;
  std::thread thread_;
};

/// One repetition through a fresh server.
struct Cycle {
  double setupS = 0;
  double coldMs = 0, coldCpuS = 0;
  std::vector<double> editMs, serverMs;
  double phaseRouteMs = 0, phaseSignoffMs = 0;  ///< summed over the edits
  double editCpuS = 0;
  std::int64_t memoHits = 0, searches = 0, netsDirty = 0;
  sadp::JsonValue cold;         ///< the cold route's reply
  sadp::JsonValue lastForward;  ///< reply to the stream's last edit (not undo)
  sadp::JsonValue last;         ///< reply to the stream's final request
  sadp::JsonValue stats;        ///< the stats reply after the stream
};

double phase(const sadp::JsonValue& reply, std::string_view name) {
  const sadp::JsonValue* p = reply.find("phase_ms");
  return p == nullptr ? 0.0 : num(*p, name);
}

/// Starts a server, loads the design, routes it cold and replays `edits`;
/// every request is one attempted operation.
Cycle runCycle(const Design& d, const std::vector<Edit>& edits,
               const std::string& sock, Result& r) {
  Cycle c;
  const double t0 = wallSeconds();
  LiveServer server(sock);
  {
    Client client(sock);
    auto call = [&](const std::string& req) {
      sadp::JsonValue reply = client.call(req);
      r.check(ok(reply), "request failed: " + req);
      return reply;
    };
    call(d.loadRequest);
    c.setupS = wallSeconds() - t0;

    const double c0 = cpuSeconds();
    const double t1 = wallSeconds();
    c.cold = call("{\"op\":\"route\",\"session\":\"eco\"}");
    c.coldMs = (wallSeconds() - t1) * 1e3;
    c.coldCpuS = cpuSeconds() - c0;

    const double c1 = cpuSeconds();
    for (std::size_t i = 0; i < edits.size(); ++i) {
      const double t = wallSeconds();
      c.last = call(editRequest(edits[i]));
      c.editMs.push_back((wallSeconds() - t) * 1e3);
      c.serverMs.push_back(num(c.last, "wall_ms"));
      c.phaseRouteMs += phase(c.last, "session.route");
      c.phaseSignoffMs += phase(c.last, "session.decompose");
      c.memoHits += integer(c.last, "memo_hits");
      c.searches += integer(c.last, "searches");
      c.netsDirty += integer(c.last, "nets_dirty");
      if (i + 2 == edits.size()) c.lastForward = c.last;
    }
    c.editCpuS = cpuSeconds() - c1;
    if (!edits.empty()) c.stats = call("{\"op\":\"stats\"}");
    call("{\"op\":\"shutdown\"}");
  }
  const int rc = server.join();
  r.check(rc == 0, "server exited with code " + std::to_string(rc));
  return c;
}

std::uint64_t designFp(const sadp::JsonValue& reply) {
  return std::uint64_t(integer(reply, "design_fp"));
}

/// A cacheless cold route of `nets` in a fresh Session: what every ECO
/// reply must equal (the ECO == cold contract).
sadp::RouteOutcome coldTwin(const Design& d,
                            std::vector<sadp::NetSpec> nets) {
  sadp::Session cold("cold", d.spec, nullptr);
  cold.setThreads(1);
  cold.setNets(std::move(nets));
  return cold.routeFull();
}

/// Outside the timed region: the loaded design's cold route equals a
/// cacheless Session route; the stream's last forward edit equals a cold
/// route of the netlist it produced; the final undo returns the design to
/// the loaded one.
void checkCycle(const Design& d, const std::vector<Edit>& edits,
                const Cycle& c, bool corrupt, Result& r) {
  std::uint64_t coldFp = designFp(c.cold);
  if (corrupt) coldFp ^= 1;
  r.check(coldFp == coldTwin(d, d.nets).designFp,
          "cold route differs from a cacheless Session route");
  if (edits.size() < 2) return;
  const Edit& e = edits[edits.size() - 2];
  std::vector<sadp::NetSpec> edited = d.nets;
  for (sadp::NetSpec& n : edited) {
    if (n.name == e.net) n.pins[std::size_t(e.pin)].candidates = {e.to};
  }
  const sadp::RouteOutcome twin = coldTwin(d, std::move(edited));
  r.check(designFp(c.lastForward) == twin.designFp &&
              str(c.lastForward, "csv") == twin.csvRow,
          "ECO edit differs from a cold route of the edited netlist (" +
              str(c.lastForward, "csv") + " vs " + twin.csvRow + ")");
  r.check(designFp(c.last) == designFp(c.cold),
          "undoing every edit did not restore the loaded design");
}

/// `edits` replayed on a Session directly -- the code the server's worker
/// runs for an edit, without the socket -- optionally traced. Returns the
/// summed applyEdit wall time; when traced, also the self times, the
/// summed counters and the expansions-per-route histogram.
double sessionStream(const Design& d, const std::vector<Edit>& edits,
                     bool traced, std::map<std::string, SelfTime>* self,
                     std::map<std::string, double>* counters,
                     std::vector<std::int64_t>* expansions, Result& r) {
  sadp::MaskCache cache;
  sadp::Session s("eco", d.spec, &cache);
  s.setThreads(1);
  s.routeFull();
  if (traced) s.ctx().setTraceLevel(sadp::TraceLevel::Full);
  double total = 0;
  for (const Edit& e : edits) {
    sadp::EditRequest req;
    req.kind = sadp::EditRequest::Kind::MovePin;
    req.net = e.net;
    req.pinIndex = e.pin;
    req.pins = {sadp::Pin{{e.to}}};
    std::string err;
    const double t = wallSeconds();
    const bool applied = s.applyEdit(req, &err).has_value();
    total += wallSeconds() - t;
    r.check(applied, "session edit failed: " + err);
    if (traced) {
      // Each replay starts by resetting the session's context; collect
      // before the next one.
      addSelfTimes(s.ctx().trace().collectEvents(), *self);
      for (const auto& [name, value] : s.ctx().metrics().counterSnapshot()) {
        (*counters)[name] += double(value);
      }
      addBuckets(s.ctx().metrics().findHistogram(
                     sadp::astar_metric::kExpansionsPerRoute),
                 *expansions);
    }
  }
  return total;
}

/// Per-layer figures of one server cycle: time split and cache behaviour
/// as the replies report them.
void setServiceValues(const Design& d, const Cycle& c, Values& v) {
  const double t0 = wallSeconds();
  sadp::makeBenchmark(d.spec);
  v["netlist.make_s"] = wallSeconds() - t0;
  std::vector<double> overhead;
  for (std::size_t i = 0; i < c.editMs.size(); ++i) {
    overhead.push_back(c.editMs[i] - c.serverMs[i]);
  }
  // A replay runs repair inside run(); session.route holds both.
  v["route.loop_s"] = c.phaseRouteMs * 1e-3;
  v["route.signoff_s"] = c.phaseSignoffMs * 1e-3;
  v["service.server_ms"] = median(c.serverMs);
  v["service.overhead_ms"] = median(overhead);
  if (const sadp::JsonValue* cache = c.stats.find("cache")) {
    const double hits = num(*cache, "hits");
    const double misses = num(*cache, "misses");
    v["mask_cache.hit_ratio"] = hits / std::max(1.0, hits + misses);
    v["mask_cache.bytes"] = num(*cache, "bytes");
    v["mask_cache.evictions"] = num(*cache, "evictions");
  }
  v["memo.hit_ratio"] = double(c.memoHits) /
                        std::max(1.0, double(c.memoHits + c.searches));
  v["service.nets_dirty"] =
      double(c.netsDirty) / std::max<std::size_t>(1, c.editMs.size());
  v["ops"] = double(c.editMs.size());
}

}  // namespace

Result runEcoWorkload(const Args& args) {
  const Design d = makeDesign(args);
  const int pairs = std::max(1, args.edits / 2);
  // Relative to the working directory (the checkout), which keeps the
  // path short enough for sun_path and inside the tree.
  const std::string sock =
      "perfbench-eco-" + std::to_string(::getpid()) + ".sock";
  Result r;
  Values v;
  try {
    // Whole rounds, so every run moves each net equally often: as many as
    // fit in --seconds, at least one. The traced run replays one stream.
    // Every stream, and every extra set-up and cold-route sample, gets a
    // fresh server. The extra samples are spread between the streams: the
    // host's speed drifts within a run, and samples taken all at one
    // moment would follow it.
    std::vector<Cycle> cycles, coldOnly;
    const double start = wallSeconds();
    double roundS = 0;
    for (std::uint64_t round = 0;
         round == 0 ||
         (!args.trace && wallSeconds() - start + roundS / 2 < args.seconds);
         ++round) {
      const double t = wallSeconds();
      for (const std::vector<Edit>& edits :
           makeRound(d, args.seed, round, pairs)) {
        cycles.push_back(runCycle(d, edits, sock, r));
        if (cycles.size() == 1) {
          checkCycle(d, edits, cycles.front(), args.corruptFingerprint, r);
        } else {
          r.check(
              designFp(cycles.back().last) == designFp(cycles.front().last),
              "repetition ended on another design than the first");
        }
        if (args.trace) break;
        for (int i = 0; i < kExtraSetupsPerStream; ++i) {
          coldOnly.push_back(runCycle(d, {}, sock, r));
        }
      }
      roundS = wallSeconds() - t;
    }

    if (!args.trace) {
      std::vector<double> setups, cold, coldCpu, edit;
      double editCpuS = 0;
      for (const std::vector<Cycle>* group : {&coldOnly, &cycles}) {
        for (const Cycle& c : *group) {
          setups.push_back(c.setupS);
          cold.push_back(c.coldMs);
          coldCpu.push_back(c.coldCpuS);
        }
      }
      for (const Cycle& c : cycles) {
        edit.insert(edit.end(), c.editMs.begin(), c.editMs.end());
        editCpuS += c.editCpuS;
      }
      double pct = 0;
      v["setup_s"] = median(setups);
      v["route_s"] = median(cold) * 1e-3;
      v["route_cpu_s"] = median(coldCpu);
      v["op_p50_ms"] = median(edit);
      v["op_tail_ms"] = tailValue(edit, &pct);
      v["op_cpu_ms"] = editCpuS * 1e3 / double(edit.size());
      v["peak_rss_mb"] = peakRssMb();
      std::printf("{\"op_tail\":{\"percentile\":%.4f,\"samples\":%zu,"
                  "\"streams\":%zu}}\n",
                  pct, edit.size(), cycles.size());
      // Quality of the loaded design as its cold route signs it off.
      const sadp::JsonValue& q = cycles.front().cold;
      v["routability_pct"] = num(q, "routability");
      v["violations"] = double(integer(q, "cut_conflicts") +
                               integer(q, "hard_overlays"));
      v["overlay_nm"] = num(q, "side_overlay_nm");
    } else {
      setServiceValues(d, cycles.front(), v);
      const std::vector<Edit> edits =
          makeRound(d, args.seed, 0, pairs).front();
      std::map<std::string, SelfTime> self;
      std::map<std::string, double> counters;
      std::vector<std::int64_t> expansions;
      const double plainS =
          sessionStream(d, edits, false, nullptr, nullptr, nullptr, r);
      const double tracedS =
          sessionStream(d, edits, true, &self, &counters, &expansions, r);
      setCounterValues(counters, bucketP50(expansions), self, v);
      setSelfTimeValues(self, tracedS, plainS, v);
    }
  } catch (const std::exception& e) {
    r.fail(std::string("eco_240: ") + e.what());
  }
  ::unlink(sock.c_str());
  v["failed_op_share"] =
      double(r.failed) / double(std::max<std::int64_t>(1, r.attempted));
  emitMetrics(v, args.trace, r);
  return r;
}

}  // namespace perfbench
