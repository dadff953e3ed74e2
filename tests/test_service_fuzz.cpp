// ECO byte-identity fuzz gate (DESIGN.md §5.11): over seeded random edit
// sequences, every incremental re-route must be byte-identical to a cold
// full route of the edited design -- per-layer mask fingerprints, overlay
// report, routing stats, and the CSV row. Runs under the `fuzz` and
// `sanitize` labels (the TSan build exercises the shared MaskCache).
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "sadp/mask_cache.hpp"
#include "service/session.hpp"

namespace sadp {
namespace {

BenchmarkSpec fuzzSpec(std::uint64_t seed) {
  BenchmarkSpec s;
  s.name = "fz";
  s.netCount = 30;
  s.width = 48;
  s.height = 48;
  s.seed = seed;
  return s;
}

/// One random valid edit against the session's current design.
EditRequest randomEdit(std::mt19937_64& rng, const Session& s, int caseId,
                       int step) {
  const std::vector<NetSpec> nets = s.netSpecs();
  EditRequest e;
  const int kind = int(rng() % 4);  // bias toward move_pin
  auto node = [&] {
    return GridNode{Track(rng() % std::uint64_t(s.spec().width)),
                    Track(rng() % std::uint64_t(s.spec().height)), 0};
  };
  if (kind == 3 && nets.size() > 5) {
    e.kind = EditRequest::Kind::RemoveNet;
    e.net = nets[rng() % nets.size()].name;
  } else if (kind == 2) {
    e.kind = EditRequest::Kind::AddNet;
    e.net = "fz" + std::to_string(caseId) + "_" + std::to_string(step);
    const GridNode a = node();
    GridNode b = node();
    while (b == a) b = node();
    e.pins = {Pin{{a}}, Pin{{b}}};
  } else {
    e.kind = EditRequest::Kind::MovePin;
    const NetSpec& n = nets[rng() % nets.size()];
    e.net = n.name;
    e.pinIndex = int(rng() % n.pins.size());
    e.pins = {Pin{{node()}}};
  }
  return e;
}

void expectSameOutcome(const RouteOutcome& eco, const RouteOutcome& cold,
                       int caseId, int step) {
  ASSERT_EQ(eco.designFp, cold.designFp)
      << "case " << caseId << " step " << step;
  EXPECT_EQ(eco.layerMaskFp, cold.layerMaskFp);
  EXPECT_EQ(eco.report, cold.report);
  EXPECT_EQ(eco.csvRow, cold.csvRow);
  EXPECT_EQ(eco.stats.totalNets, cold.stats.totalNets);
  EXPECT_EQ(eco.stats.routedNets, cold.stats.routedNets);
  EXPECT_EQ(eco.stats.wirelength, cold.stats.wirelength);
  EXPECT_EQ(eco.stats.vias, cold.stats.vias);
}

/// 100 seeded sequences of random edits; every ECO replay is compared
/// against a cold route of the same edited design.
TEST(ServiceFuzz, EcoReplaysMatchColdRoutes) {
  constexpr int kCases = 100;
  constexpr int kEditsPerCase = 2;
  std::int64_t totalMemoHits = 0;
  for (int caseId = 0; caseId < kCases; ++caseId) {
    std::mt19937_64 rng(0x5adb0000u + std::uint64_t(caseId));
    MaskCache cache;
    Session eco("eco", fuzzSpec(1 + std::uint64_t(caseId % 7)), &cache);
    eco.routeFull();
    for (int step = 0; step < kEditsPerCase; ++step) {
      const EditRequest e = randomEdit(rng, eco, caseId, step);
      std::string err;
      const std::optional<RouteOutcome> out = eco.applyEdit(e, &err);
      if (!out) continue;  // duplicate-name add etc.: rejected, no run
      totalMemoHits += out->memoHits;

      MaskCache coldCache;
      Session cold("cold", fuzzSpec(1 + std::uint64_t(caseId % 7)),
                   &coldCache);
      cold.setNets(eco.netSpecs());
      const RouteOutcome ref = cold.routeFull();
      expectSameOutcome(*out, ref, caseId, step);
      if (HasFatalFailure()) return;
    }
  }
  // The replays must actually memoize, not silently re-search everything.
  EXPECT_GT(totalMemoHits, 0);
}

/// Two sessions editing concurrently against ONE shared MaskCache must
/// each stay byte-identical to their serial references (the TSan target).
TEST(ServiceFuzz, ConcurrentSessionsShareCacheSafely) {
  constexpr int kEdits = 4;
  // Serial references, one private cache each.
  std::vector<std::vector<std::uint64_t>> ref(2);
  for (int w = 0; w < 2; ++w) {
    std::mt19937_64 rng(0xfeed + std::uint64_t(w));
    MaskCache cache;
    Session s("ref", fuzzSpec(3 + std::uint64_t(w)), &cache);
    ref[w].push_back(s.routeFull().designFp);
    for (int step = 0; step < kEdits; ++step) {
      const EditRequest e = randomEdit(rng, s, w, step);
      std::string err;
      if (const auto out = s.applyEdit(e, &err)) {
        ref[w].push_back(out->designFp);
      }
    }
  }

  MaskCache shared;
  std::vector<std::vector<std::uint64_t>> got(2);
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937_64 rng(0xfeed + std::uint64_t(w));
      Session s("t" + std::to_string(w), fuzzSpec(3 + std::uint64_t(w)),
                &shared);
      got[w].push_back(s.routeFull().designFp);
      for (int step = 0; step < kEdits; ++step) {
        const EditRequest e = randomEdit(rng, s, w, step);
        std::string err;
        if (const auto out = s.applyEdit(e, &err)) {
          got[w].push_back(out->designFp);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(got[0], ref[0]);
  EXPECT_EQ(got[1], ref[1]);
}

}  // namespace
}  // namespace sadp
