// Lifecycle, caching and determinism tests for serve::Server.
//
// The determinism contract under test: a request's payload is a pure
// function of its content fields — worker count, submission order, cache
// state and batch composition change only latency, never bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "agent/tools.h"
#include "obs/registry.h"
#include "serve/server.h"
#include "tests/serve/serve_fixture.h"

namespace cp::serve {
namespace {

using testing::ServeFixture;
using testing::stripes;

class ServerTest : public ServeFixture {};

std::map<std::string, std::uint64_t> replay(Server& server,
                                            std::vector<GenerationRequest> requests) {
  std::vector<std::pair<std::string, std::future<GenerationResult>>> futures;
  for (GenerationRequest& r : requests) {
    std::string id = r.id;
    Server::Submitted s = server.submit(std::move(r));
    EXPECT_TRUE(s.admitted) << id << ": " << s.reason;
    futures.emplace_back(std::move(id), std::move(s.result));
  }
  std::map<std::string, std::uint64_t> hashes;
  for (auto& [id, future] : futures) {
    const GenerationResult result = future.get();
    EXPECT_EQ(result.status, RequestStatus::kOk) << id << ": " << result.reason;
    hashes[id] = result.library_hash();
  }
  return hashes;
}

TEST_F(ServerTest, PayloadIsIdenticalForOneAndManyWorkers) {
  // A mixed trace: both styles, both delivery targets, a duplicate seed.
  std::vector<GenerationRequest> trace;
  trace.push_back(make_request("a", 7));
  trace.push_back(make_request("b", 8, "Layer-10003"));
  trace.push_back(make_request("c", 7));  // duplicate content of "a"
  GenerationRequest raw = make_request("d", 9);
  raw.legalize = false;
  raw.rows = raw.cols = 16;
  trace.push_back(raw);
  GenerationRequest multi = make_request("e", 10);
  multi.count = 2;
  trace.push_back(multi);

  std::map<std::string, std::uint64_t> baseline;
  {
    ServerConfig config;
    config.workers = 1;
    Server server(sampler_, legalizers(), config);
    baseline = replay(server, trace);
  }
  EXPECT_EQ(baseline.at("a"), baseline.at("c"));

  {
    ServerConfig config;
    config.workers = 4;
    config.batch.max_batch_requests = 4;
    Server server(sampler_, legalizers(), config);
    // Different submission order on top of different worker count.
    std::vector<GenerationRequest> reversed(trace.rbegin(), trace.rend());
    const auto hashes = replay(server, std::move(reversed));
    EXPECT_EQ(hashes, baseline);
  }
}

TEST_F(ServerTest, DispatcherRecordsBatchMetrics) {
#ifdef CP_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out";
#endif
  // One serve/batches count and one serve/batch_requests sample per popped
  // batch, one serve/queue_wait_s sample per batched request.
  obs::Registry& registry = obs::Registry::global();
  registry.reset();
  registry.set_enabled(true);
  {
    Server server(sampler_, legalizers(), ServerConfig{});
    replay(server, {make_request("m1", 21), make_request("m2", 22, "Layer-10003")});
  }
  registry.set_enabled(false);
  const obs::Snapshot snap = registry.snapshot();
  registry.reset();
  const long long batches = snap.counters.at("serve/batches");
  EXPECT_GE(batches, 1);
  EXPECT_EQ(snap.histograms.at("serve/batch_requests").count, batches);
  EXPECT_DOUBLE_EQ(snap.histograms.at("serve/batch_requests").sum, 2.0);
  EXPECT_EQ(snap.histograms.at("serve/queue_wait_s").count, 2);
}

TEST_F(ServerTest, RepeatedRequestHitsTheCache) {
  ServerConfig config;
  config.workers = 2;
  Server server(sampler_, legalizers(), config);
  const GenerationResult first = server.submit(make_request("r1", 5)).result.get();
  ASSERT_EQ(first.status, RequestStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  const GenerationResult second = server.submit(make_request("r2", 5)).result.get();
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.payload.get(), first.payload.get());  // shared, not recomputed
  EXPECT_GE(server.cache().hits(), 1);
}

TEST_F(ServerTest, CacheDisabledStillDeliversIdenticalPayloads) {
  ServerConfig config;
  config.cache_entries = 0;
  Server server(sampler_, legalizers(), config);
  const GenerationResult first = server.submit(make_request("r1", 5)).result.get();
  const GenerationResult second = server.submit(make_request("r2", 5)).result.get();
  ASSERT_EQ(first.status, RequestStatus::kOk);
  ASSERT_EQ(second.status, RequestStatus::kOk);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(payload_hash(*first.payload), payload_hash(*second.payload));
}

TEST_F(ServerTest, IdenticalInFlightRequestsShareOneComputation) {
  ServerConfig config;
  config.workers = 2;
  config.batch.max_wait_us = 20000;  // generous fill window
  Server server(sampler_, legalizers(), config);
  // Park a slow request first so the twins are queued together behind it.
  auto slow = server.submit([&] {
    GenerationRequest r = make_request("slow", 11);
    r.count = 2;
    return r;
  }());
  auto t1 = server.submit(make_request("twin-1", 12));
  auto t2 = server.submit(make_request("twin-2", 12));
  const GenerationResult r1 = t1.result.get();
  const GenerationResult r2 = t2.result.get();
  ASSERT_EQ(r1.status, RequestStatus::kOk);
  ASSERT_EQ(r2.status, RequestStatus::kOk);
  // The second twin is served by dedup (same batch) or by the cache
  // (different batch) — either way it shares the leader's payload.
  EXPECT_TRUE(r2.deduped || r2.cache_hit || r1.deduped || r1.cache_hit);
  EXPECT_EQ(r1.library_hash(), r2.library_hash());
  slow.result.get();
}

TEST_F(ServerTest, InvalidRequestsRejectWithReadyResult) {
  Server server(sampler_, legalizers());
  GenerationRequest bad = make_request("", 1);  // missing id
  Server::Submitted s = server.submit(std::move(bad));
  EXPECT_FALSE(s.admitted);
  EXPECT_EQ(s.result.get().status, RequestStatus::kRejected);

  GenerationRequest unknown = make_request("x", 1, "Layer-404");
  s = server.submit(std::move(unknown));
  EXPECT_FALSE(s.admitted);
  const GenerationResult r = s.result.get();
  EXPECT_EQ(r.status, RequestStatus::kRejected);
  EXPECT_NE(r.reason.find("invalid"), std::string::npos);
}

TEST_F(ServerTest, ShutdownRejectsNewWorkButDrainsAdmitted) {
  ServerConfig config;
  Server server(sampler_, legalizers(), config);
  auto inflight = server.submit(make_request("in", 3));
  server.shutdown();
  EXPECT_EQ(inflight.result.get().status, RequestStatus::kOk);  // drained
  auto late = server.submit(make_request("late", 4));
  EXPECT_FALSE(late.admitted);
  EXPECT_EQ(late.result.get().status, RequestStatus::kRejected);
}

// A generator whose candidates only occasionally legalize: stream draws
// select between clean period-8 stripes and a period-1 comb that cannot fit
// the physical budget, so the server must retry streams in order.
class FlakyGenerator : public diffusion::TopologyGenerator {
 public:
  explicit FlakyGenerator(int good_one_in) : good_one_in_(good_one_in) {}

  squish::Topology sample(const diffusion::SampleConfig& config,
                          util::Rng& rng) const override {
    const bool good = good_one_in_ > 0 && rng.uniform_int(0, good_one_in_ - 1) == 0;
    return stripes(config.rows, good ? 8 : 1);
  }

  squish::Topology modify(const squish::Topology& known, const squish::Topology&,
                          const diffusion::ModifyConfig&, util::Rng&) const override {
    return known;
  }

  const char* name() const override { return "FlakyGenerator"; }
  bool thread_safe() const override { return true; }

 private:
  int good_one_in_;
};

TEST_F(ServerTest, LegalizationFailuresRetryUntilFilled) {
  FlakyGenerator flaky(/*good_one_in=*/6);
  ServerConfig config;
  config.workers = 2;
  Server server(flaky, legalizers(), config);
  GenerationRequest r = make_request("retry", 21);
  r.count = 2;
  // A 512nm budget fits the 4 column intervals of a period-8 stripe set
  // (4 x 30nm) but not the 32 intervals of the period-1 comb — the comb
  // candidates must fail legalization and be retried past.
  r.width_nm = r.height_nm = 512;
  const GenerationResult res = server.submit(std::move(r)).result.get();
  ASSERT_EQ(res.status, RequestStatus::kOk) << res.reason;
  EXPECT_EQ(res.delivered(), 2u);
  EXPECT_GT(res.attempts, 2);  // rejected candidates were examined

  // Determinism holds across worker counts even on the retry path.
  Server serial(flaky, legalizers(), ServerConfig{});
  GenerationRequest again = make_request("retry-serial", 21);
  again.count = 2;
  again.width_nm = again.height_nm = 512;
  const GenerationResult res1 = serial.submit(std::move(again)).result.get();
  EXPECT_EQ(res1.library_hash(), res.library_hash());
  EXPECT_EQ(res1.attempts, res.attempts);
}

TEST_F(ServerTest, HopelessRequestCompletesIncomplete) {
  FlakyGenerator hopeless(/*good_one_in=*/0);  // never legal
  ServerConfig config;
  config.max_attempts_per_pattern = 2;  // small budget: 2*count+64
  Server server(hopeless, legalizers(), config);
  GenerationRequest doomed = make_request("doomed", 1);
  doomed.width_nm = doomed.height_nm = 512;  // the comb can never fit
  const GenerationResult res = server.submit(std::move(doomed)).result.get();
  EXPECT_EQ(res.status, RequestStatus::kIncomplete);
  EXPECT_EQ(res.delivered(), 0u);
  EXPECT_EQ(res.attempts, config.max_attempts_per_pattern * 1 + 64);
  EXPECT_FALSE(res.reason.empty());
}

TEST_F(ServerTest, AgentGenerationToolRoutesThroughServer) {
  ServerConfig config;
  Server server(sampler_, legalizers(), config);
  agent::PatternStore store;
  agent::GeneratorBackend backend;
  backend.sampler = &sampler_;
  backend.legalizers = {&legal0_, &legal1_};
  backend.store = &store;
  backend.window = kWindow;
  backend.server = &server;
  agent::ToolRegistry tools = agent::make_standard_tools(backend);

  util::Json args;
  args["style"] = "Layer-10001";
  args["rows"] = 16;
  args["cols"] = 16;
  args["seed"] = 3;
  const agent::ToolResult first = tools.call("topology_generation", args);
  ASSERT_TRUE(first.ok) << first.payload.dump();
  EXPECT_TRUE(first.payload.at("served").as_bool());
  EXPECT_FALSE(first.payload.at("cache_hit").as_bool());
  EXPECT_TRUE(store.has_topology(first.payload.at("topology_id").as_string()));

  const agent::ToolResult second = tools.call("topology_generation", args);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.payload.at("cache_hit").as_bool());  // same args => cache
}

}  // namespace
}  // namespace cp::serve
