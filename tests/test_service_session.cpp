// Service foundation tests: the strict NDJSON value layer and the
// resident-session ECO semantics (DESIGN.md §5.11). The heavier
// byte-identity sweep lives in test_service_fuzz.cpp.
#include <gtest/gtest.h>

#include "sadp/mask_cache.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/session.hpp"

namespace sadp {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ParsesScalarsExactly) {
  EXPECT_TRUE(parseJson("null")->isNull());
  EXPECT_EQ(parseJson("true")->asBool(), true);
  EXPECT_EQ(parseJson("-42")->asInt(), -42);
  EXPECT_TRUE(parseJson("1.5")->isDouble());
  EXPECT_DOUBLE_EQ(parseJson("1.5")->asDouble(), 1.5);
  // int64-exact: no double round-trip for fingerprints.
  EXPECT_EQ(parseJson("9223372036854775807")->asInt(),
            std::int64_t(9223372036854775807LL));
  // Integer overflow degrades to double instead of failing.
  EXPECT_TRUE(parseJson("92233720368547758080")->isDouble());
  EXPECT_EQ(parseJson("\"a\\nb\\u0041\"")->asString(), "a\nbA");
}

TEST(Json, ObjectsKeepInsertionOrderAndRoundTrip) {
  const std::string text =
      R"({"op":"edit","id":7,"pins":[[1,2,0],[3,4,0]],"f":1.25})";
  const std::optional<JsonValue> v = parseJson(text);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->find("op")->asString(), "edit");
  EXPECT_EQ(v->find("id")->asInt(), 7);
  EXPECT_EQ(v->find("pins")->asArray()[1].asArray()[0].asInt(), 3);
  EXPECT_EQ(writeJson(*v), text);
}

TEST(Json, RejectsMalformedInputWithOffsets) {
  std::string err;
  EXPECT_FALSE(parseJson("", &err));
  EXPECT_FALSE(parseJson("{\"a\":1,}", &err));
  EXPECT_FALSE(parseJson("[1,2", &err));
  EXPECT_FALSE(parseJson("\"unterminated", &err));
  EXPECT_FALSE(parseJson("01", &err));  // trailing garbage after 0
  EXPECT_FALSE(parseJson("{} extra", &err));
  EXPECT_NE(err.find("at byte"), std::string::npos);
  EXPECT_FALSE(parseJson("nul", &err));
  EXPECT_FALSE(parseJson("{\"a\" 1}", &err));
  // Depth bomb is rejected, not stack-overflowed.
  EXPECT_FALSE(parseJson(std::string(200, '[') + std::string(200, ']')));
}

TEST(Json, EscapesControlCharactersOnOutput) {
  JsonValue v{JsonValue::Object{}};
  v.set("s", std::string("a\x01"
                         "b\"\\\n"));
  EXPECT_EQ(writeJson(v), "{\"s\":\"a\\u0001b\\\"\\\\\\n\"}");
}

// ----------------------------------------------------------- Load spec --

/// parseLoadSpec on one request line; *err holds the rejection message.
bool loadSpec(const std::string& line, BenchmarkSpec* spec,
              std::string* err) {
  const std::optional<JsonValue> req = parseJson(line);
  EXPECT_TRUE(req) << line;
  return req && parseLoadSpec(*req, spec, err);
}

TEST(LoadSpec, AcceptsExplicitAndPaperDesigns) {
  BenchmarkSpec spec;
  std::string err;
  // The README's ECO design, with every optional field set.
  ASSERT_TRUE(loadSpec(R"({"op":"load","session":"d","nets":240,)"
                       R"("width":160,"height":160,"layers":3,"seed":4,)"
                       R"("pin_candidates":3})",
                       &spec, &err))
      << err;
  EXPECT_EQ(spec.netCount, 240);
  EXPECT_EQ(spec.width, 160);
  EXPECT_EQ(spec.height, 160);
  EXPECT_EQ(spec.layers, 3);
  EXPECT_EQ(spec.seed, 4u);
  EXPECT_EQ(spec.pinCandidates, 3);
  EXPECT_TRUE(spec.name.empty());
  // The upper bounds themselves are admitted.
  spec = {};
  ASSERT_TRUE(loadSpec(R"({"nets":100000,"width":2048,"height":2048,)"
                       R"("layers":16,"pin_candidates":25,)"
                       R"("seed":9223372036854775807})",
                       &spec, &err))
      << err;
  EXPECT_EQ(spec.netCount, int(kLoadMaxNets));
  EXPECT_EQ(spec.width, Track(kLoadMaxEdge));
  EXPECT_EQ(spec.seed, 9223372036854775807u);
  // Paper benchmarks keep their own size and name.
  spec = {};
  ASSERT_TRUE(loadSpec(R"({"benchmark":"Test5"})", &spec, &err)) << err;
  EXPECT_EQ(spec.name, "Test5");
  EXPECT_EQ(spec.netCount, 28000);
}

// Out-of-range input is rejected, never narrowed: {"nets":4294967297}
// once loaded a 1-net design and replied ok, and an out-of-range
// "layers" silently routed on 3.
TEST(LoadSpec, RejectsOutOfRangeInsteadOfNarrowing) {
  const char* bad[] = {
      R"({"nets":4294967297,"width":64,"height":64})",
      R"({"nets":100001,"width":64,"height":64})",
      R"({"nets":0,"width":64,"height":64})",
      R"({"nets":10,"width":4294967360,"height":64})",
      R"({"nets":10,"width":64,"height":2049})",
      R"({"nets":10,"width":7,"height":64})",
      R"({"nets":10,"width":64,"height":64,"layers":0})",
      R"({"nets":10,"width":64,"height":64,"layers":17})",
      R"({"nets":10,"width":64,"height":64,"layers":4294967299})",
      R"({"nets":10,"width":64,"height":64,"layers":"3"})",
      R"({"nets":10,"width":64,"height":64,"pin_candidates":0})",
      R"({"nets":10,"width":64,"height":64,"pin_candidates":26})",
      R"({"nets":10,"width":64,"height":64,"pin_candidates":1.5})",
      R"({"nets":10.0,"width":64,"height":64})",
      R"({"width":64,"height":64})",
      R"({"benchmark":"Test99"})",
      R"({"benchmark":"Test1","scale":2})",
      R"({"benchmark":"Test1","scale":"0.5"})",
      R"({"benchmark":"Test1","scale":null})",
      R"({"nets":10,"width":64,"height":64,"seed":-1})",
      R"({"nets":10,"width":64,"height":64,"seed":"7"})",
      R"({"nets":10,"width":64,"height":64,"seed":7.5})",
      R"({"nets":10,"width":64,"height":64,"seed":9223372036854775808})",
  };
  for (const char* line : bad) {
    BenchmarkSpec spec;
    std::string err;
    EXPECT_FALSE(loadSpec(line, &spec, &err)) << line;
    EXPECT_FALSE(err.empty()) << line;
  }
}

/// parseLoadOptions on one request line.
bool loadOptions(const std::string& line, RouterOptions* ro, int* threads,
                 std::string* err) {
  const std::optional<JsonValue> req = parseJson(line);
  EXPECT_TRUE(req) << line;
  return req && parseLoadOptions(*req, ro, threads, err);
}

TEST(LoadOptions, AcceptsInRangeKnobs) {
  RouterOptions ro;
  int threads = 0;
  std::string err;
  ASSERT_TRUE(loadOptions(R"({"negotiate":true,"negotiate_iters":1024,)"
                          R"("history_cost":0.5,"threads":256})",
                          &ro, &threads, &err))
      << err;
  EXPECT_TRUE(ro.negotiate);
  EXPECT_TRUE(ro.timingDriven);
  EXPECT_EQ(ro.maxNegotiateIters, int(kLoadMaxNegotiateIters));
  EXPECT_EQ(threads, int(kLoadMaxThreads));
  // Absent knobs keep their defaults.
  ro = {};
  threads = 0;
  ASSERT_TRUE(loadOptions(R"({"nets":5})", &ro, &threads, &err)) << err;
  EXPECT_EQ(ro.maxNegotiateIters, RouterOptions{}.maxNegotiateIters);
  EXPECT_EQ(threads, 0);
  // history_cost's upper bound is inclusive.
  ASSERT_TRUE(loadOptions(R"({"history_cost":65536})", &ro, &threads, &err))
      << err;
  EXPECT_EQ(ro.historyIncrement, float(kLoadMaxHistoryCost));
}

// negotiate_iters and threads were narrowed with int(...): 4294967297
// became 1, and a non-positive or non-integer threads was ignored.
TEST(LoadOptions, RejectsOutOfRangeIntegerKnobs) {
  const char* bad[] = {
      R"({"negotiate_iters":4294967297})",
      R"({"negotiate_iters":0})",
      R"({"negotiate_iters":1025})",
      R"({"negotiate_iters":2.0})",
      R"({"threads":4294967297})",
      R"({"threads":0})",
      R"({"threads":-3})",
      R"({"threads":257})",
      R"({"threads":2.5})",
      R"({"threads":"4"})",
      R"({"timing":"yes"})",
      R"({"history_cost":-1})",
      R"({"history_cost":65537})",
      R"({"history_cost":1e300})",
      R"({"backend":"sadp9"})",
  };
  for (const char* line : bad) {
    RouterOptions ro;
    int threads = 0;
    std::string err;
    EXPECT_FALSE(loadOptions(line, &ro, &threads, &err)) << line;
    EXPECT_FALSE(err.empty()) << line;
    EXPECT_EQ(threads, 0) << line;
  }
  RouterOptions ro;
  int threads = 0;
  std::string err;
  EXPECT_FALSE(loadOptions(R"({"threads":0})", &ro, &threads, &err));
  EXPECT_NE(err.find("[1, 256]"), std::string::npos) << err;
}

// ------------------------------------------------------------- Session --

BenchmarkSpec tinySpec(std::uint64_t seed = 11) {
  BenchmarkSpec s;
  s.name = "svc-tiny";
  s.netCount = 35;
  s.width = 56;
  s.height = 56;
  s.seed = seed;
  return s;
}

TEST(Session, FullRouteIsDeterministic) {
  MaskCache cache;
  Session a("a", tinySpec(), &cache);
  Session b("b", tinySpec(), &cache);
  const RouteOutcome ra = a.routeFull();
  const RouteOutcome rb = b.routeFull();
  EXPECT_EQ(ra.designFp, rb.designFp);
  EXPECT_EQ(ra.layerMaskFp, rb.layerMaskFp);
  EXPECT_EQ(ra.csvRow, rb.csvRow);
  EXPECT_EQ(ra.report, rb.report);
  // Second session's sign-off decompositions come from the shared cache.
  EXPECT_GT(rb.cacheHits, 0);
}

TEST(Session, MalformedEditsAreRejectedWithoutStateChange) {
  Session s("s", tinySpec(), nullptr);
  s.routeFull();
  const std::uint64_t fp = s.lastOutcome().designFp;
  const int nets = s.netCount();

  std::string err;
  EditRequest e;
  e.kind = EditRequest::Kind::MovePin;
  e.net = "no-such-net";
  e.pinIndex = 0;
  e.pins.push_back(Pin{{GridNode{1, 1, 0}}});
  EXPECT_FALSE(s.applyEdit(e, &err));
  EXPECT_NE(err.find("unknown net"), std::string::npos);

  e.net = "n0";
  e.pinIndex = 99;
  EXPECT_FALSE(s.applyEdit(e, &err));

  EditRequest dup;
  dup.kind = EditRequest::Kind::AddNet;
  dup.net = "n0";  // exists
  dup.pins = {Pin{{GridNode{1, 1, 0}}}, Pin{{GridNode{5, 5, 0}}}};
  EXPECT_FALSE(s.applyEdit(dup, &err));

  EXPECT_EQ(s.netCount(), nets);
  EXPECT_EQ(s.lastOutcome().designFp, fp);  // nothing re-ran
}

/// One move_pin ECO must equal a cold route of the edited design, and
/// must actually replay (memo hits > 0, fewer real searches than cold).
TEST(Session, EcoMovePinMatchesColdRoute) {
  MaskCache cache;
  Session eco("eco", tinySpec(), &cache);
  eco.routeFull();

  EditRequest e;
  e.kind = EditRequest::Kind::MovePin;
  e.net = "n3";
  e.pinIndex = 1;
  e.pins.push_back(Pin{{GridNode{40, 12, 0}}});
  std::string err;
  const std::optional<RouteOutcome> after = eco.applyEdit(e, &err);
  ASSERT_TRUE(after) << err;
  EXPECT_GT(after->memoHits, 0);
  EXPECT_GT(after->netsDirty, 0);

  MaskCache coldCache;
  Session cold("cold", tinySpec(), &coldCache);
  cold.setNets(eco.netSpecs());
  const RouteOutcome ref = cold.routeFull();
  EXPECT_EQ(after->designFp, ref.designFp);
  EXPECT_EQ(after->layerMaskFp, ref.layerMaskFp);
  EXPECT_EQ(after->report, ref.report);
  EXPECT_EQ(after->csvRow, ref.csvRow);
  EXPECT_LT(after->searches, ref.searches);
}

TEST(Session, AddAndRemoveNetRoundTrip) {
  MaskCache cache;
  Session s("s", tinySpec(), &cache);
  const RouteOutcome before = s.routeFull();

  EditRequest add;
  add.kind = EditRequest::Kind::AddNet;
  add.net = "extra";
  add.pins = {Pin{{GridNode{3, 50, 0}}}, Pin{{GridNode{20, 50, 0}}}};
  std::string err;
  const std::optional<RouteOutcome> withNet = s.applyEdit(add, &err);
  ASSERT_TRUE(withNet) << err;
  EXPECT_EQ(withNet->stats.totalNets, before.stats.totalNets + 1);

  EditRequest rm;
  rm.kind = EditRequest::Kind::RemoveNet;
  rm.net = "extra";
  const std::optional<RouteOutcome> restored = s.applyEdit(rm, &err);
  ASSERT_TRUE(restored) << err;
  // Removing the added net restores the original design byte for byte.
  EXPECT_EQ(restored->designFp, before.designFp);
  EXPECT_EQ(restored->csvRow, before.csvRow);
}

}  // namespace
}  // namespace sadp
