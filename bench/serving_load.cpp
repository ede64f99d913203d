// Serving-layer load benchmark: replays synthetic request traces through
// serve::Server and reports client-observed latency percentiles
// (p50/p95/p99) and throughput for three scenarios:
//
//   * cold        — every request has distinct content; the result cache
//                   cannot help and every request pays a diffusion call.
//   * duplicate_heavy — the same request volume over a handful of distinct
//                   contents, the shape of an agent session re-issuing its
//                   defaults; almost everything is a cache hit or an
//                   in-batch dedup, so throughput must be a multiple of the
//                   cold scenario's (the cache-path speedup the JSON
//                   records).
//
//   * fast_mode    — the few-step engine end-to-end through the serving
//                   layer: the same distinct-content trace once with the
//                   full K-step reverse chain and once with a few-step
//                   request (small `steps`, default placement), served over the
//                   single-resolution sampler (the cascade pins its own
//                   tuned step budgets, so it would mask the knob). The
//                   JSON records the fast-mode throughput multiple.
//
// Results are written to BENCH_serving.json (override with --json FILE).
// Extra flags on top of bench/common.h: --json FILE, --requests N,
// --distinct K, --workers N, --rows N, --legalize 0|1, --fast_requests N,
// --fast_steps N.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <future>
#include <vector>

#include "bench/common.h"
#include "serve/server.h"
#include "util/json.h"

using namespace cp;

namespace {

struct ScenarioResult {
  double wall_s = 0;
  double throughput_rps = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  long long cache_hits = 0, deduped = 0, ok = 0;
  std::uint64_t combined_hash = 0;
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

ScenarioResult run_scenario(const bench::Env& env, const serve::ServerConfig& config,
                            const std::vector<serve::GenerationRequest>& trace,
                            const diffusion::TopologyGenerator* generator = nullptr) {
  const std::vector<const legalize::Legalizer*> legalizers = {&env.chat->legalizer(0),
                                                              &env.chat->legalizer(1)};
  serve::Server server(generator ? *generator : env.chat->sampler(), legalizers, config);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<serve::GenerationResult>> futures;
  futures.reserve(trace.size());
  for (const serve::GenerationRequest& r : trace) {
    serve::Server::Submitted s = server.submit(r);
    futures.push_back(std::move(s.result));
  }
  ScenarioResult out;
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  std::uint64_t combined = 1469598103934665603ULL;
  for (auto& f : futures) {
    const serve::GenerationResult r = f.get();
    if (r.ok()) ++out.ok;
    if (r.cache_hit) ++out.cache_hits;
    if (r.deduped) ++out.deduped;
    latencies.push_back(r.total_ms);
    combined ^= r.library_hash();
    combined *= 1099511628211ULL;
  }
  const auto end = std::chrono::steady_clock::now();
  server.shutdown();

  out.wall_s = std::chrono::duration<double>(end - start).count();
  out.throughput_rps =
      out.wall_s > 0 ? static_cast<double>(trace.size()) / out.wall_s : 0;
  std::sort(latencies.begin(), latencies.end());
  out.p50_ms = percentile(latencies, 0.50);
  out.p95_ms = percentile(latencies, 0.95);
  out.p99_ms = percentile(latencies, 0.99);
  out.combined_hash = combined;
  return out;
}

util::Json to_json(const ScenarioResult& r, std::size_t requests) {
  util::Json j;
  j["requests"] = static_cast<long long>(requests);
  j["ok"] = r.ok;
  j["cache_hits"] = r.cache_hits;
  j["deduped"] = r.deduped;
  j["wall_s"] = r.wall_s;
  j["throughput_rps"] = r.throughput_rps;
  j["p50_ms"] = r.p50_ms;
  j["p95_ms"] = r.p95_ms;
  j["p99_ms"] = r.p99_ms;
  j["combined_hash"] = util::format("%016llx", static_cast<unsigned long long>(r.combined_hash));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Env env = bench::make_env(argc, argv, /*default_samples=*/0);
  util::CliFlags flags(argc, argv);
  const std::string json_path = bench::out_path(env, flags.get("json", "BENCH_serving.json"));
  const long long requests = flags.get_int("requests", 64);
  const long long distinct = std::max<long long>(1, flags.get_int("distinct", 8));
  const int rows = static_cast<int>(flags.get_int("rows", 32));
  const bool legalize = flags.get_int("legalize", 1) != 0;

  serve::ServerConfig config;
  config.workers = static_cast<int>(flags.get_int("workers", 4));
  config.queue_capacity = static_cast<std::size_t>(requests) + 1;  // admission never blocks
  config.batch.max_batch_requests = 8;

  auto make_request = [&](long long i, std::uint64_t seed) {
    serve::GenerationRequest r;
    r.id = "load-" + std::to_string(i);
    r.style = (seed % 2 == 0) ? "Layer-10001" : "Layer-10003";
    r.rows = r.cols = rows;
    r.sample_steps = 6;
    r.polish_rounds = 1;
    r.width_nm = r.height_nm = 2048;
    r.seed = seed;
    r.legalize = legalize;
    return r;
  };

  // Cold: every request distinct -> every request pays a diffusion call.
  std::vector<serve::GenerationRequest> cold_trace;
  for (long long i = 0; i < requests; ++i) {
    cold_trace.push_back(make_request(i, static_cast<std::uint64_t>(1000 + i)));
  }
  // Duplicate-heavy: the same volume over `distinct` contents.
  std::vector<serve::GenerationRequest> dup_trace;
  for (long long i = 0; i < requests; ++i) {
    dup_trace.push_back(make_request(i, static_cast<std::uint64_t>(1000 + i % distinct)));
  }

  std::printf("[bench] serving_load: %lld requests, %d workers, %dx%d, legalize=%d\n",
              requests, config.workers, rows, rows, legalize ? 1 : 0);
  const ScenarioResult cold = run_scenario(env, config, cold_trace);
  std::printf("  cold:            %7.1f req/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms\n",
              cold.throughput_rps, cold.p50_ms, cold.p95_ms, cold.p99_ms);
  const ScenarioResult dup = run_scenario(env, config, dup_trace);
  std::printf("  duplicate_heavy: %7.1f req/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms"
              "  (cache hits %lld, deduped %lld)\n",
              dup.throughput_rps, dup.p50_ms, dup.p95_ms, dup.p99_ms, dup.cache_hits,
              dup.deduped);
  const double speedup = cold.throughput_rps > 0 ? dup.throughput_rps / cold.throughput_rps : 0;
  std::printf("  cache-path speedup: %.2fx\n", speedup);

  // Fast-mode: few-step requests end-to-end. Small distinct-content traces
  // (the full chain is ~20x the work per request), identical seeds in both,
  // served over the single-resolution sampler where the per-request
  // `steps` field is honored exactly.
  const long long fast_requests = std::max<long long>(1, flags.get_int("fast_requests", 12));
  const int fast_steps = static_cast<int>(flags.get_int("fast_steps", 24));
  const int chain_steps = env.chat->schedule().steps();
  std::vector<serve::GenerationRequest> full_trace, fast_trace;
  for (long long i = 0; i < fast_requests; ++i) {
    serve::GenerationRequest r = make_request(i, static_cast<std::uint64_t>(5000 + i));
    r.id = "full-" + std::to_string(i);
    r.sample_steps = chain_steps;  // count >= K visits every level: full chain
    full_trace.push_back(r);
    r.id = "fast-" + std::to_string(i);
    r.sample_steps = fast_steps;
    fast_trace.push_back(std::move(r));
  }
  const diffusion::TopologyGenerator& flat = env.chat->fine_sampler();
  const ScenarioResult full = run_scenario(env, config, full_trace, &flat);
  std::printf("  full_chain:      %7.1f req/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms"
              "  (%lld requests, %d steps)\n",
              full.throughput_rps, full.p50_ms, full.p95_ms, full.p99_ms, fast_requests,
              chain_steps);
  const ScenarioResult fast = run_scenario(env, config, fast_trace, &flat);
  std::printf("  fast_mode:       %7.1f req/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms"
              "  (%d steps)\n",
              fast.throughput_rps, fast.p50_ms, fast.p95_ms, fast.p99_ms, fast_steps);
  const double fast_speedup =
      full.throughput_rps > 0 ? fast.throughput_rps / full.throughput_rps : 0;
  std::printf("  fast-mode speedup: %.2fx\n", fast_speedup);

  util::Json report;
  report["bench"] = std::string("serving_load");
  report["workers"] = static_cast<long long>(config.workers);
  report["rows"] = static_cast<long long>(rows);
  report["legalize"] = legalize;
  report["distinct"] = distinct;
  report["hardware_threads"] = static_cast<long long>(util::ThreadPool::hardware_threads());
  report["train_clips_per_class"] = static_cast<long long>(env.config.train_clips_per_class);
  report["cold"] = to_json(cold, cold_trace.size());
  report["duplicate_heavy"] = to_json(dup, dup_trace.size());
  report["cache_speedup"] = speedup;
  util::Json fast_mode;
  fast_mode["steps"] = static_cast<long long>(fast_steps);
  fast_mode["chain_steps"] = static_cast<long long>(chain_steps);
  fast_mode["full_chain"] = to_json(full, full_trace.size());
  fast_mode["fast"] = to_json(fast, fast_trace.size());
  fast_mode["speedup"] = fast_speedup;
  report["fast_mode"] = std::move(fast_mode);
  std::ofstream out = bench::open_output(json_path);
  out << report.dump(2) << "\n";
  std::printf("[bench] wrote %s\n", json_path.c_str());

  env.manifest.metrics["cold_rps"] = cold.throughput_rps;
  env.manifest.metrics["dup_rps"] = dup.throughput_rps;
  env.manifest.metrics["cache_speedup"] = speedup;
  env.manifest.metrics["fast_mode_speedup"] = fast_speedup;
  bench::write_manifest(env);
  return 0;
}
