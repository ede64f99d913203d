// serve_cold and serve_hot: the multi-process tier driven over TCP, plus an
// in-process replay of the same requests through serve::Server: the
// correctness oracle, and with the generator wrapped, the traced run.

#include <chrono>
#include <cmath>
#include <memory>

#include "core/chatpattern.h"
#include "load.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "stats.h"
#include "tier.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kStyles[2] = {"Layer-10001", "Layer-10003"};
constexpr int kProcs = 2;        // --procs of the tier
constexpr int kConnections = 2;  // load generator sockets
constexpr int kSetups = 2;       // tier launches of an untraced run

// serve_cold: Phase A open loop, Phase B closed loop.
constexpr double kColdRate = 4.0;     // req/s
constexpr int kColdWindow = 16;       // outstanding requests in Phase B
constexpr double kColdCapacity = 15;  // req/s, sizes Phase B to its share
// serve_hot: 16 contents, cache-filled untimed before timing, then one
// closed loop with 256 requests pipelined that gives latency and
// throughput. Sub-millisecond round trips (an open loop at 4000 req/s, or
// one request in flight per connection) measured the shared machine's CPU
// steal more than the tier: between runs of identical work their p50 moved
// 0.23 -> 1.7 ms and their p99 0.3 -> 14 ms.
constexpr int kHotContents = 16;
constexpr int kHotWindow = 256;
constexpr double kHotCapacity = 28000;  // req/s, sizes the phase
constexpr int kHotReplay = 20000;       // hot requests replayed in-process when traced
// Frozen latency limits of slo_attain (well clear of the seed's tails).
constexpr double kColdLimitMs = 600;
constexpr double kHotLimitMs = 50;

std::string request_fields(const std::string& style, std::uint64_t seed) {
  return "\"style\":\"" + style + "\",\"seed\":" + std::to_string(seed);
}

// The workers' backend. The tier is launched with these flags and the
// in-process replay builds the same model (loaded from the model cache when
// run.py found one trained from the same sources), so neither side depends
// on the other's defaults.
constexpr std::uint64_t kBackendSeed = 1;
constexpr int kBackendTrain = 160;  // training clips per class
constexpr int kBackendDraws = 3;    // draws per bucket

/// Tier launches: kSetups in a row (one on a traced run), each timed from
/// spawn to every worker alive; all but the last are shut down at once.
std::unique_ptr<Tier> launch(const RunConfig& cfg, Report& report, std::vector<double>* setup) {
  const int n = cfg.trace ? 1 : kSetups;
  const std::vector<std::string> backend = {"--seed",  std::to_string(kBackendSeed),
                                            "--train", std::to_string(kBackendTrain),
                                            "--draws", std::to_string(kBackendDraws)};
  std::unique_ptr<Tier> tier;
  for (int i = 0; i < n; ++i) {
    if (tier) tier->shutdown();
    tier = std::make_unique<Tier>(cfg.serve_bin, cfg.workdir, kProcs, backend);
    setup->push_back(tier->setup_s());
    report.info("tier.setup_s[" + std::to_string(i) + "]", tier->setup_s());
  }
  return tier;
}

struct TierOutcome {
  cp::util::Json stats;
  double frontend_rss_mb = 0;
  double workers_rss_mb = 0;
  int exit_code = 0;
};

void finish_tier(Tier& tier, TierOutcome* out) {
  out->stats = tier.command("stats");
  out->frontend_rss_mb = tier.frontend_rss_mb();
  out->workers_rss_mb = tier.workers_rss_mb();
  out->exit_code = tier.shutdown();
}

std::unique_ptr<cp::core::ChatPattern> replay_backend(const RunConfig& cfg) {
  cp::core::ChatPatternConfig config;
  config.seed = kBackendSeed;
  config.train_clips_per_class = kBackendTrain;
  config.draws_per_bucket = kBackendDraws;
  config.model_cache_path = cfg.model_cache;
  return std::make_unique<cp::core::ChatPattern>(config);
}

/// The serving tier reproduced in-process: one serve::Server with the
/// ServerConfig defaults, which chatpattern_serve's flags default to (one
/// worker thread, as in each tier process, so sampling calls never overlap
/// and the traced run's service time splits cleanly). Payloads do not
/// depend on batching or routing (the determinism contract), so its library
/// hashes are the tier's: the oracle of the TCP results.
std::unique_ptr<cp::serve::Server> in_process_server(const cp::core::ChatPattern& chat,
                                                     const cp::diffusion::TopologyGenerator& gen) {
  cp::serve::ServerConfig config;
  config.fallback = &chat.fine_sampler();
  return std::make_unique<cp::serve::Server>(
      gen, std::vector<const cp::legalize::Legalizer*>{&chat.legalizer(0), &chat.legalizer(1)},
      config);
}

struct Replay {
  std::vector<cp::serve::GenerationResult> results;
  std::vector<double> latency_ms;  // submit -> completion
};

cp::serve::GenerationRequest parse(const std::string& fields, std::size_t i) {
  cp::serve::ParsedRequest parsed =
      cp::serve::parse_request_line("{\"id\":\"q" + std::to_string(i) + "\"," + fields + "}");
  if (!parsed.ok) throw std::runtime_error("bad request: " + parsed.error);
  return std::move(parsed.request);
}

/// Serial: each request is submitted when the previous one has completed.
Replay replay_serial(cp::serve::Server& server, const std::vector<std::string>& fields) {
  Replay out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Clock::time_point start = Clock::now();
    out.results.push_back(server.submit(parse(fields[i], i)).result.get());
    out.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  return out;
}

std::vector<std::uint64_t> hashes_of(const Replay& replay) {
  std::vector<std::uint64_t> out;
  for (const auto& r : replay.results) out.push_back(r.library_hash());
  return out;
}

/// The traced run's replay must deliver what the untraced one delivered.
void check_traced(Report& report, const std::vector<std::uint64_t>& untraced,
                  std::vector<std::uint64_t> traced) {
  if (report.corrupt("traced_vs_untraced_hash") && !traced.empty()) traced.front() ^= 1;
  report.check("traced_vs_untraced_hash", traced == untraced,
               "traced " + hex64(combined_hash(traced)) + " vs untraced " +
                   hex64(combined_hash(untraced)));
}

std::vector<double> field_of(const std::vector<Reply>& replies, double Reply::*field) {
  std::vector<double> out;
  for (const Reply& r : replies) {
    if (r.answered) out.push_back(r.*field);
  }
  return out;
}

std::vector<double> frontend_ms(const std::vector<Reply>& replies) {
  std::vector<double> out;
  for (const Reply& r : replies) {
    if (r.answered) out.push_back(r.latency_ms - r.total_ms);
  }
  return out;
}

struct Counts {
  long long sent = 0, ok = 0, failed = 0, rejected = 0, unanswered = 0, cache_hits = 0;
  long long attempts = 0, patterns = 0;
};

Counts count(const std::vector<Reply>& replies) {
  Counts c;
  for (const Reply& r : replies) {
    ++c.sent;
    if (!r.answered) {
      ++c.unanswered;
    } else if (r.status == "ok") {
      ++c.ok;
    } else if (r.status == "rejected") {
      ++c.rejected;
    } else {
      ++c.failed;
    }
    if (r.cache_hit) ++c.cache_hits;
    c.attempts += r.attempts;
    c.patterns += r.patterns;
  }
  return c;
}

double slo_share(const std::vector<Reply>& replies, double limit_ms) {
  if (replies.empty()) return 0;
  long long met = 0;
  for (const Reply& r : replies) {
    if (r.answered && r.status == "ok" && r.latency_ms <= limit_ms) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(replies.size());
}

/// Closed-loop throughput while the window was full (load.h).
double sustained_rate(const LoadRun& run) {
  return run.steady_s > 0 ? static_cast<double>(run.steady_replies) / run.steady_s : 0;
}

void report_phase(Report& report, const std::string& phase, const LoadRun& run) {
  const Counts c = count(run.replies);
  report.info(phase + ".sent", static_cast<double>(c.sent));
  report.info(phase + ".ok", static_cast<double>(c.ok));
  report.info(phase + ".failed", static_cast<double>(c.failed + c.unanswered));
  report.info(phase + ".rejected", static_cast<double>(c.rejected));
  report.info(phase + ".wall_s", run.wall_s);
  if (run.steady_replies > 1) {
    report.info(phase + ".steady", std::to_string(run.steady_replies) + " replies in " +
                                       std::to_string(run.steady_s) + " s with the window full");
  }
  report.count_requests(c.sent, c.sent - c.ok);
}

/// Checks shared by both serve workloads on the untraced tier run.
void check_tier(Report& report, const std::vector<const LoadRun*>& phases, TierOutcome tier,
                long long expected_accepted) {
  // Every request answered ok, transport intact.
  long long sent = 0, ok = 0;
  bool transport = true;
  for (const LoadRun* run : phases) {
    std::vector<Reply> replies = run->replies;
    if (report.corrupt("all_answered") && !replies.empty()) replies.back() = Reply{};
    const Counts c = count(replies);
    sent += c.sent;
    ok += c.ok;
    transport = transport && run->transport_ok;
  }
  report.check("all_answered", transport && ok == sent,
               std::to_string(ok) + "/" + std::to_string(sent) + " ok");

  // Exactly-once accounting: the ledger balances, nothing restarted.
  if (report.corrupt("ledger_balanced")) {
    tier.stats["completed"] = tier.stats.get_int("completed", 0) - 1;
  }
  const long long accepted = tier.stats.get_int("accepted", -1);
  const long long completed = tier.stats.get_int("completed", -2);
  const long long restarts = tier.stats.get_int("worker_restarts", -1);
  const long long doubles = tier.stats.get_int("double_completes", -1);
  report.check("ledger_balanced",
               accepted == expected_accepted && accepted == completed && restarts == 0 &&
                   doubles == 0 && tier.exit_code == 0,
               "accepted " + std::to_string(accepted) + " (expected " +
                   std::to_string(expected_accepted) + "), completed " +
                   std::to_string(completed) + ", restarts " + std::to_string(restarts) +
                   ", double completes " + std::to_string(doubles) + ", exit " +
                   std::to_string(tier.exit_code));
}

void report_serve_layers(Report& report, const LoadRun& latency_phase,
                         const std::vector<const LoadRun*>& timed, const TierOutcome& tier) {
  Counts all;
  for (const LoadRun* run : timed) {
    const Counts c = count(run->replies);
    all.sent += c.sent;
    all.cache_hits += c.cache_hits;
    all.attempts += c.attempts;
    all.patterns += c.patterns;
  }
  report.layer("serve.frontend_ms", median(frontend_ms(latency_phase.replies)), "ms");
  report.layer("serve.queue_wait_ms",
               median(field_of(latency_phase.replies, &Reply::queue_wait_ms)), "ms");
  report.layer("serve.service_ms", median(field_of(latency_phase.replies, &Reply::service_ms)),
               "ms");
  report.layer("serve.attempts_per_pattern",
               all.patterns > 0 ? static_cast<double>(all.attempts) / all.patterns : 0, "ratio");
  report.layer("serve.cache_hit_share",
               all.sent > 0 ? static_cast<double>(all.cache_hits) / all.sent : 0, "share");
  report.layer("serve.accepted", static_cast<double>(tier.stats.get_int("accepted", 0)), "count");
  report.layer("serve.completed", static_cast<double>(tier.stats.get_int("completed", 0)), "count");
  report.layer("serve.worker_restarts",
               static_cast<double>(tier.stats.get_int("worker_restarts", 0)), "count");
  report.layer("serve.frontend_rss_mb", tier.frontend_rss_mb, "MB");
  report.layer("serve.worker_rss_mb", tier.workers_rss_mb, "MB");
  report.layer("load.late_ms_max", latency_phase.late_ms_max, "ms");
}

void report_latency(Report& report, const LoadRun& phase, double limit_ms) {
  const std::vector<double> lat = field_of(phase.replies, &Reply::latency_ms);
  const Tail tail = sliced_tail(lat);
  report.info("lat_tail.percentile", tail.label());
  report.info("slo.limit_ms", limit_ms);
  report.end_to_end("lat_p50_ms", median(lat), "ms");
  report.end_to_end("lat_tail_ms", tail.value, "ms");
  report.end_to_end("slo_attain", slo_share(phase.replies, limit_ms), "share");
}

/// Traced-run figures of an in-process replay, per request of `timed`:
/// sampling busy time and calls, and the service time not spent sampling
/// (legalization, batching). `before` is the sampling done ahead of them.
void report_replay_layers(Report& report, const Accumulator& acc, Accumulator::Stat before,
                          const std::vector<cp::serve::GenerationResult>& timed) {
  const double n = static_cast<double>(timed.size());
  double service = 0;
  for (const auto& r : timed) service += r.service_ms;
  const Accumulator::Stat all = acc.get("diffusion.sample");
  const double sample_ms = all.total - before.total;
  const double calls = static_cast<double>(all.calls - before.calls);
  report.layer("diffusion.sample_ms", n > 0 ? sample_ms / n : 0, "ms");
  report.layer("diffusion.sample_calls", n > 0 ? calls / n : 0, "count");
  report.layer("serve.nonsample_ms", n > 0 ? (service - sample_ms) / n : 0, "ms");
}

}  // namespace

void run_serve_cold(const RunConfig& cfg, Report& report) {
  const int n_a = std::max(4, static_cast<int>(std::lround(kColdRate * 0.6 * cfg.seconds)));
  const int n_b = std::max(4, static_cast<int>(std::lround(kColdCapacity * 0.4 * cfg.seconds)));
  std::vector<std::string> phase_a, phase_b;
  for (int i = 0; i < n_a + n_b; ++i) {
    const std::string fields = request_fields(kStyles[i % 2], request_seed(cfg.seed, i));
    (i < n_a ? phase_a : phase_b).push_back(fields);
  }
  report.info("phase_a", std::to_string(n_a) + " requests, open loop at " +
                             std::to_string(kColdRate) + " req/s");
  report.info("phase_b", std::to_string(n_b) + " requests, closed loop with " +
                             std::to_string(kColdWindow) + " outstanding");

  std::vector<double> setups;
  std::unique_ptr<Tier> tier = launch(cfg, report, &setups);
  const LoadRun a = run_open_loop(tier->port(), phase_a, kColdRate, kConnections);
  const LoadRun b = run_closed_loop(tier->port(), phase_b, kColdWindow, kConnections);
  TierOutcome outcome;
  finish_tier(*tier, &outcome);
  tier.reset();
  report_phase(report, "phase_a", a);
  report_phase(report, "phase_b", b);
  check_tier(report, {&a, &b}, outcome, n_a + n_b);

  const Counts all = [&] {
    Counts c = count(a.replies);
    const Counts cb = count(b.replies);
    c.sent += cb.sent;
    c.cache_hits += cb.cache_hits;
    return c;
  }();
  long long hits = all.cache_hits;
  if (report.corrupt("cache_share")) hits = 1;
  report.check("cache_share", hits == 0,
               std::to_string(hits) + " cache hits in " + std::to_string(all.sent) +
                   " distinct cold requests (expected 0)");

  // Oracle: Phase A through an in-process server, one request at a time.
  // The traced run replays it once more with the generator wrapped, so its
  // overhead compares the same work without queueing in both.
  std::unique_ptr<cp::core::ChatPattern> chat = replay_backend(cfg);
  Replay replay;
  {
    const auto server = in_process_server(*chat, chat->sampler());
    replay = replay_serial(*server, phase_a);
  }
  std::vector<std::uint64_t> tier_hashes;
  for (const Reply& r : a.replies) tier_hashes.push_back(r.library_hash);
  if (report.corrupt("tier_vs_replay_hash")) tier_hashes.front() ^= 1;
  const std::uint64_t tier_combined = combined_hash(tier_hashes);
  const std::uint64_t replay_combined = combined_hash(hashes_of(replay));
  report.info("phase_a.combined_hash", hex64(tier_combined));
  report.check("tier_vs_replay_hash", tier_combined == replay_combined,
               "tier " + hex64(tier_combined) + " vs in-process " + hex64(replay_combined));

  std::vector<cp::squish::SquishPattern> patterns;
  std::vector<std::string> styles;
  for (std::size_t i = 0; i < replay.results.size(); ++i) {
    if (!replay.results[i].payload) continue;
    for (const auto& p : replay.results[i].payload->patterns) {
      patterns.push_back(p);
      styles.push_back(kStyles[i % 2]);
    }
  }
  const Quality q = quality_of(patterns, styles);

  report.end_to_end("setup_s", median(setups), "s");
  report_latency(report, a, kColdLimitMs);
  report.end_to_end("throughput", sustained_rate(b), "1/s");
  report.end_to_end("peak_rss_mb", outcome.frontend_rss_mb + outcome.workers_rss_mb, "MB");
  report.end_to_end("legality", static_cast<double>(q.legal) / n_a, "share");
  report.end_to_end("diversity", q.diversity_bits, "bits");

  report_serve_layers(report, a, {&a, &b}, outcome);
  if (cfg.trace) {
    Accumulator acc;
    TimedGenerator timed(chat->sampler(), acc);
    Replay traced;
    {
      const auto server = in_process_server(*chat, timed);
      traced = replay_serial(*server, phase_a);
    }
    check_traced(report, hashes_of(replay), hashes_of(traced));
    report_replay_layers(report, acc, Accumulator::Stat{}, traced.results);
    report.layer("trace.overhead_ms", median(traced.latency_ms) - median(replay.latency_ms), "ms");
  }
}

void run_serve_hot(const RunConfig& cfg, Report& report) {
  // The hot set: the first candidate contents that give each worker the
  // same number of keys, so the load does not depend on how 16 keys
  // happen to hash across the two shards.
  std::vector<std::string> contents, content_styles;
  {
    cp::serve::ShardMap shards(kProcs);
    for (int s = 0; s < kProcs; ++s) shards.set_alive(s, true);
    std::vector<int> owned(kProcs, 0);
    for (int j = 0; static_cast<int>(contents.size()) < kHotContents; ++j) {
      const std::string style = kStyles[j % 2];
      const std::string fields = request_fields(style, request_seed(cfg.seed, 50000 + j));
      const cp::serve::ParsedRequest parsed =
          cp::serve::parse_request_line("{\"id\":\"k\"," + fields + "}");
      int& n = owned[static_cast<std::size_t>(shards.owner(parsed.request.content_hash()))];
      if (n >= kHotContents / kProcs) continue;
      ++n;
      contents.push_back(fields);
      content_styles.push_back(style);
    }
  }
  const int n = std::max(64, static_cast<int>(std::lround(kHotCapacity * 0.6 * cfg.seconds)));
  std::vector<std::string> hot_requests;  // request i carries content i mod 16
  for (int i = 0; i < n; ++i) {
    hot_requests.push_back(contents[static_cast<std::size_t>(i % kHotContents)]);
  }
  report.info("warmup", std::to_string(kHotContents) + " contents, sent once untimed");
  report.info("phase", std::to_string(n) + " requests, closed loop with " +
                           std::to_string(kHotWindow) + " outstanding");

  std::vector<double> setups;
  std::unique_ptr<Tier> tier = launch(cfg, report, &setups);
  const LoadRun warm = run_closed_loop(tier->port(), contents, kHotContents, kConnections);
  const LoadRun a = run_closed_loop(tier->port(), hot_requests, kHotWindow, kConnections);
  TierOutcome outcome;
  finish_tier(*tier, &outcome);
  tier.reset();
  report_phase(report, "warmup", warm);
  report_phase(report, "phase", a);
  check_tier(report, {&warm, &a}, outcome, kHotContents + n);

  const Counts timed_counts = count(a.replies);
  const long long sent = timed_counts.sent;
  long long hits = timed_counts.cache_hits;
  if (report.corrupt("cache_share")) hits = sent * 98 / 100;
  const double share = sent > 0 ? static_cast<double>(hits) / sent : 0;
  report.check("cache_share", share >= 0.99,
               std::to_string(hits) + "/" + std::to_string(sent) + " timed requests hit the cache");

  // Every timed reply carries exactly the payload its content got warm.
  std::vector<std::uint64_t> warm_hashes;
  for (const Reply& r : warm.replies) warm_hashes.push_back(r.library_hash);
  long long mismatched = 0;
  for (std::size_t i = 0; i < a.replies.size(); ++i) {
    std::uint64_t h = a.replies[i].library_hash;
    if (report.corrupt("hot_payload_stable") && i == 0) h ^= 1;
    if (h != warm_hashes[i % kHotContents]) ++mismatched;
  }
  report.check("hot_payload_stable", mismatched == 0,
               std::to_string(mismatched) + " timed replies differ from their warm-up payload");

  // Oracle: the 16 contents generated in-process must match the tier's.
  std::unique_ptr<cp::core::ChatPattern> chat = replay_backend(cfg);
  const auto server = in_process_server(*chat, chat->sampler());
  const Replay fill = replay_serial(*server, contents);
  std::vector<std::uint64_t> replay_hashes = hashes_of(fill);
  if (report.corrupt("tier_vs_replay_hash")) warm_hashes.front() ^= 1;
  report.check("tier_vs_replay_hash", combined_hash(warm_hashes) == combined_hash(replay_hashes),
               "tier " + hex64(combined_hash(warm_hashes)) + " vs in-process " +
                   hex64(combined_hash(replay_hashes)));

  std::vector<cp::squish::SquishPattern> patterns;
  std::vector<std::string> styles;
  for (int k = 0; k < kHotContents; ++k) {
    const auto& r = fill.results[static_cast<std::size_t>(k)];
    if (!r.payload) continue;
    for (const auto& p : r.payload->patterns) {
      patterns.push_back(p);
      styles.push_back(content_styles[static_cast<std::size_t>(k)]);
    }
  }
  const Quality q = quality_of(patterns, styles);

  report.end_to_end("setup_s", median(setups), "s");
  report_latency(report, a, kHotLimitMs);
  report.end_to_end("throughput", sustained_rate(a), "1/s");
  report.end_to_end("peak_rss_mb", outcome.frontend_rss_mb + outcome.workers_rss_mb, "MB");
  report.end_to_end("legality", static_cast<double>(q.legal) / kHotContents, "share");
  report.end_to_end("diversity", q.diversity_bits, "bits");

  report_serve_layers(report, a, {&a}, outcome);
  if (cfg.trace) {
    // The first kHotReplay hot requests, one at a time on warm caches, on
    // the untraced server and then on a traced one filled the same way.
    const std::vector<std::string> sample(hot_requests.begin(),
                                          hot_requests.begin() + std::min(n, kHotReplay));
    const Replay untraced_hot = replay_serial(*server, sample);
    Accumulator acc;
    TimedGenerator timed(chat->sampler(), acc);
    const auto traced_server = in_process_server(*chat, timed);
    const Replay traced_fill = replay_serial(*traced_server, contents);
    const Accumulator::Stat fill_sampling = acc.get("diffusion.sample");
    const Replay traced_hot = replay_serial(*traced_server, sample);
    std::vector<std::uint64_t> untraced_hashes = hashes_of(fill);
    std::vector<std::uint64_t> traced_hashes = hashes_of(traced_fill);
    for (std::uint64_t h : hashes_of(untraced_hot)) untraced_hashes.push_back(h);
    for (std::uint64_t h : hashes_of(traced_hot)) traced_hashes.push_back(h);
    check_traced(report, untraced_hashes, traced_hashes);
    // Sampling during the hot phase only: the cache fill is not timed.
    report_replay_layers(report, acc, fill_sampling, traced_hot.results);
    report.layer("trace.overhead_ms",
                 median(traced_hot.latency_ms) - median(untraced_hot.latency_ms), "ms");
  }
}

}  // namespace perfbench
