// Wire-format and content-hash tests for serve::GenerationRequest — the
// NDJSON protocol of chatpattern_serve (docs/SERVING.md).

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "serve/request.h"

namespace cp::serve {
namespace {

GenerationRequest sample_request() {
  GenerationRequest r;
  r.id = "req-1";
  r.style = "Layer-10003";
  r.count = 3;
  r.rows = 64;
  r.cols = 32;
  r.sample_steps = 8;
  r.polish_rounds = 1;
  r.width_nm = 1024;
  r.height_nm = 512;
  r.seed = 42;
  r.legalize = false;
  r.priority = 7;
  r.deadline_ms = 250.0;
  return r;
}

TEST(RequestWire, JsonRoundTripPreservesEveryField) {
  const GenerationRequest r = sample_request();
  const GenerationRequest back = GenerationRequest::from_json(r.to_json());
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.style, r.style);
  EXPECT_EQ(back.count, r.count);
  EXPECT_EQ(back.rows, r.rows);
  EXPECT_EQ(back.cols, r.cols);
  EXPECT_EQ(back.sample_steps, r.sample_steps);
  EXPECT_EQ(back.polish_rounds, r.polish_rounds);
  EXPECT_EQ(back.width_nm, r.width_nm);
  EXPECT_EQ(back.height_nm, r.height_nm);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.legalize, r.legalize);
  EXPECT_EQ(back.priority, r.priority);
  EXPECT_DOUBLE_EQ(back.deadline_ms, r.deadline_ms);
  EXPECT_EQ(back.content_hash(), r.content_hash());
}

TEST(RequestWire, DefaultsSurviveMinimalLine) {
  const ParsedRequest p = parse_request_line(R"({"id":"only-id"})");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.id, "only-id");
  EXPECT_EQ(p.request.style, "Layer-10001");
  EXPECT_EQ(p.request.count, 1);
  EXPECT_TRUE(p.request.legalize);
  EXPECT_EQ(p.request.priority, 1);
}

TEST(RequestWire, MalformedLinesAreRejectedNotThrown) {
  EXPECT_FALSE(parse_request_line("this is not json").ok);
  EXPECT_FALSE(parse_request_line("{\"id\":").ok);
  EXPECT_FALSE(parse_request_line("[1,2,3]").ok);
  const ParsedRequest p = parse_request_line("not json at all");
  EXPECT_FALSE(p.error.empty());
}

TEST(RequestWire, ValidationCatchesBadFields) {
  EXPECT_FALSE(parse_request_line(R"({"style":"Layer-10001"})").ok);  // no id
  EXPECT_FALSE(parse_request_line(R"({"id":"x","style":"Layer-9"})").ok);
  EXPECT_FALSE(parse_request_line(R"({"id":"x","count":0})").ok);
  EXPECT_FALSE(parse_request_line(R"({"id":"x","rows":-4})").ok);
  EXPECT_FALSE(parse_request_line(R"({"id":"x","steps":0})").ok);
  // Only the noise-uniform and searched placements exist.
  EXPECT_FALSE(parse_request_line(R"({"id":"x","schedule":"uniform"})").ok);
  EXPECT_FALSE(parse_request_line(R"({"id":"x","schedule":"quadratic"})").ok);
  EXPECT_TRUE(parse_request_line(R"({"id":"x","schedule":"noise_uniform"})").ok);
  EXPECT_TRUE(parse_request_line(R"({"id":"x","schedule":"searched"})").ok);
}

TEST(RequestHash, CoversContentFieldsOnly) {
  const GenerationRequest base = sample_request();
  // Scheduling fields must NOT change the hash: a high-priority retry of a
  // cached request still hits.
  GenerationRequest sched = base;
  sched.id = "other-id";
  sched.priority = 99;
  sched.deadline_ms = 1.0;
  EXPECT_EQ(sched.content_hash(), base.content_hash());

  // Every content field must change it.
  auto differs = [&](auto mutate) {
    GenerationRequest m = base;
    mutate(m);
    return m.content_hash() != base.content_hash();
  };
  EXPECT_TRUE(differs([](GenerationRequest& m) { m.style = "Layer-10001"; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.count; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.rows; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.cols; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.sample_steps; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.polish_rounds; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.width_nm; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.height_nm; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { ++m.seed; }));
  EXPECT_TRUE(differs([](GenerationRequest& m) { m.legalize = !m.legalize; }));
}

TEST(RequestHash, PinnedValuesAreStable) {
  // Literal hashes: a change to content_hash() moves every cache key, shard
  // placement and benchmark hash, so it must be deliberate.
  EXPECT_EQ(GenerationRequest{}.content_hash(), 0x7824861911e45685ULL);
  GenerationRequest full;
  full.style = "Layer-10003";
  full.count = 3;
  full.rows = 64;
  full.cols = 32;
  full.sample_steps = 8;
  full.polish_rounds = 1;
  full.schedule = "searched";
  full.width_nm = 1024;
  full.height_nm = 512;
  full.seed = 42;
  full.legalize = false;
  full.source = "store";
  EXPECT_EQ(full.content_hash(), 0x6ffe7c1ba704f3d7ULL);
}

TEST(RequestWire, PrecisionAcceptsOnlyFp32) {
  const ParsedRequest absent = parse_request_line(R"({"id":"q"})");
  const ParsedRequest fp32 = parse_request_line(R"({"id":"q","precision":"fp32"})");
  ASSERT_TRUE(absent.ok) << absent.error;
  ASSERT_TRUE(fp32.ok) << fp32.error;
  EXPECT_EQ(fp32.request.content_hash(), absent.request.content_hash());
  EXPECT_EQ(absent.request.content_hash(), 0x7824861911e45685ULL);
  for (const char* line : {R"({"id":"q","precision":"int8"})",
                           R"({"id":"q","precision":"fp16"})"}) {
    const ParsedRequest p = parse_request_line(line);
    EXPECT_FALSE(p.ok) << line;
    EXPECT_NE(p.error.find("no int8 tier"), std::string::npos) << p.error;
  }
}

TEST(RequestWire, IntegerFieldsOutsideIntRangeAreRejected) {
  // 4294967360 = 2^32 + 64: narrowed to int it would be served (and
  // deduplicated) as a 64-row request.
  for (const char* key : {"rows", "cols", "count", "steps", "polish", "priority"}) {
    for (const char* value : {"4294967360", "4294967297", "2147483648", "-2147483649"}) {
      const std::string line =
          std::string(R"({"id":"q",")") + key + "\":" + value + "}";
      const ParsedRequest p = parse_request_line(line);
      EXPECT_FALSE(p.ok) << line;
      EXPECT_NE(p.error.find(std::string("'") + key + "'"), std::string::npos)
          << line << " -> " << p.error;
    }
  }
  // The int bounds themselves still parse (and then meet the usual checks).
  const ParsedRequest max_priority =
      parse_request_line(R"({"id":"q","priority":2147483647})");
  ASSERT_TRUE(max_priority.ok) << max_priority.error;
  EXPECT_EQ(max_priority.request.priority, 2147483647);
  const ParsedRequest min_priority =
      parse_request_line(R"({"id":"q","priority":-2147483648})");
  ASSERT_TRUE(min_priority.ok) << min_priority.error;
  EXPECT_EQ(min_priority.request.priority, -2147483647 - 1);
}

TEST(RequestWire, SeedAndSizesAreExactIntegersBelowTwoTo53) {
  // A JSON number is a double: 9007199254740993 reads as 2^53 and would be
  // served, cached and deduplicated as seed 9007199254740992; -1 would
  // become 2^64-1, and 7.5 would round to 8.
  for (const char* key : {"seed", "width_nm", "height_nm"}) {
    for (const char* value : {"9007199254740993", "9007199254740992", "18446744073709551615",
                              "-1", "7.5", "1e300"}) {
      const std::string line = std::string(R"({"id":"q",")") + key + "\":" + value + "}";
      const ParsedRequest p = parse_request_line(line);
      EXPECT_FALSE(p.ok) << line;
      EXPECT_NE(p.error.find(std::string("'") + key + "'"), std::string::npos)
          << line << " -> " << p.error;
    }
  }
  const ParsedRequest max_seed = parse_request_line(R"({"id":"q","seed":9007199254740991})");
  ASSERT_TRUE(max_seed.ok) << max_seed.error;
  EXPECT_EQ(max_seed.request.seed, 9007199254740991ULL);
  const ParsedRequest zero_seed = parse_request_line(R"({"id":"q","seed":0})");
  ASSERT_TRUE(zero_seed.ok) << zero_seed.error;
  EXPECT_EQ(zero_seed.request.seed, 0u);
  const ParsedRequest wide = parse_request_line(R"({"id":"q","width_nm":4096,"height_nm":8192})");
  ASSERT_TRUE(wide.ok) << wide.error;
  EXPECT_EQ(wide.request.width_nm, 4096);
  EXPECT_EQ(wide.request.height_nm, 8192);
}

TEST(RequestWire, WrongTypedFieldsAreRejectedNotDefaulted) {
  // Each of these used to parse with the field at its default, so the
  // request was served as a different one.
  const std::pair<const char*, const char*> cases[] = {
      {"count", R"("5")"},       {"seed", R"("7")"},     {"legalize", R"("no")"},
      {"rows", "true"},          {"width_nm", R"("9")"}, {"priority", "null"},
      {"deadline_ms", R"("9")"}, {"no_cache", "1"},      {"style", "10001"},
      {"schedule", "[]"},        {"source", "{}"},       {"tenant", "false"},
      {"precision", "null"},     {"polish", R"("1")"}};
  for (const auto& [key, value] : cases) {
    const std::string line = std::string(R"({"id":"q",")") + key + "\":" + value + "}";
    const ParsedRequest p = parse_request_line(line);
    EXPECT_FALSE(p.ok) << line;
    EXPECT_NE(p.error.find(std::string("'") + key + "' must be a"), std::string::npos)
        << line << " -> " << p.error;
  }
  const ParsedRequest numeric_id = parse_request_line(R"({"id":7})");
  EXPECT_FALSE(numeric_id.ok);
  EXPECT_NE(numeric_id.error.find("'id' must be a string"), std::string::npos) << numeric_id.error;
}

TEST(RequestWire, ResultJsonCarriesHexLibraryHash) {
  GenerationResult res;
  res.id = "r";
  res.status = RequestStatus::kOk;
  auto payload = std::make_shared<GenerationPayload>();
  payload->topologies.emplace_back(4, 4, 1);
  res.payload = payload;
  const util::Json j = res.to_json();
  EXPECT_EQ(j.at("status").as_string(), "ok");
  const std::string hash = j.at("library_hash").as_string();
  EXPECT_EQ(hash.size(), 16u);  // %016llx
  EXPECT_NE(res.library_hash(), 0u);
}

TEST(RequestWire, BatchKeyGroupsCompatibleRequests) {
  const GenerationRequest a = sample_request();
  GenerationRequest b = a;
  b.id = "req-2";
  b.seed = 99;       // seeds stay per-request
  b.count = 1;       // so does the amount requested
  b.legalize = true; // and the delivery target
  EXPECT_EQ(batch_key(a, 1), batch_key(b, 1));
  GenerationRequest c = a;
  c.rows = a.rows * 2;
  EXPECT_FALSE(batch_key(a, 1) == batch_key(c, 1));
  EXPECT_FALSE(batch_key(a, 0) == batch_key(a, 1));
}

}  // namespace
}  // namespace cp::serve
