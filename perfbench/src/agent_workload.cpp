// agent_freesize: one in-process designer session asking for free-size
// patterns in natural language (the paper's headline path): NL parsing and
// planning, the ReAct loop, out-painting, legalization and repairs.

#include <chrono>
#include <cmath>
#include <memory>

#include "agent/chat_session.h"
#include "core/chatpattern.h"
#include "extension/outpaint.h"
#include "serve/request.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kStyles[2] = {"Layer-10001", "Layer-10003"};
constexpr int kSize = 256;           // 4x the model window in area: 9 windows
constexpr int kStride = 64;          // the backend's default out-painting stride
constexpr double kRequestS = 0.35;   // sizes the request count to the window
constexpr int kSetups = 2;            // untraced set-ups; a traced run sets up once
constexpr double kLimitMs = 1500;    // frozen latency limit of slo_attain

struct Delivery {
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> hashes;  // payload hash per request
  std::vector<cp::squish::SquishPattern> patterns;
  std::vector<std::string> styles;
  std::vector<long long> delivered;  // patterns per request
  double wall_s = 0;
};

std::string request_text(std::uint64_t run_seed, int i) {
  const std::uint64_t s = request_seed(run_seed, static_cast<std::uint64_t>(i));
  return "Generate 1 pattern of " + std::to_string(kSize) + "x" + std::to_string(kSize) +
         " in " + kStyles[i % 2] + " style using out-painting with seed " + std::to_string(s);
}

/// Closed loop, one request outstanding. `handle` runs one request and
/// returns the delivered patterns.
template <typename Handle>
Delivery run_session(std::uint64_t seed, int n, Handle&& handle) {
  Delivery d;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    const Clock::time_point start = Clock::now();
    const std::vector<cp::squish::SquishPattern> got = handle(request_text(seed, i));
    d.latency_ms.push_back(ms_since(start));
    cp::serve::GenerationPayload payload;
    payload.patterns = got;
    d.hashes.push_back(cp::serve::payload_hash(payload));
    d.delivered.push_back(static_cast<long long>(got.size()));
    for (const auto& p : got) {
      d.patterns.push_back(p);
      d.styles.push_back(kStyles[i % 2]);
    }
  }
  d.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return d;
}

std::vector<cp::squish::SquishPattern> patterns_of(const cp::agent::SessionReport& report,
                                                   const cp::agent::PatternStore& store) {
  std::vector<cp::squish::SquishPattern> out;
  for (const auto& sub : report.subtasks) {
    for (const std::string& id : sub.execution.pattern_ids) {
      if (store.has_pattern(id)) out.push_back(store.pattern(id));
    }
  }
  return out;
}

}  // namespace

void run_agent_freesize(const RunConfig& cfg, Report& report) {
  const int n = std::max(1, static_cast<int>(std::lround(cfg.seconds / kRequestS)));
  report.info("requests",
              std::to_string(n) + " x \"" + request_text(cfg.seed, 0) + "\" (styles alternate)");

  // Set-up: ChatPattern construction (datasets, training, agent stack).
  const int setups = cfg.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<cp::core::ChatPattern> chat;
  for (int i = 0; i < setups; ++i) {
    chat.reset();
    const Clock::time_point start = Clock::now();
    chat = std::make_unique<cp::core::ChatPattern>(cp::core::ChatPatternConfig{});
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    report.info("setup_s[" + std::to_string(i) + "]", setup_s.back());
  }

  const Delivery d = run_session(cfg.seed, n, [&](const std::string& text) {
    return patterns_of(chat->customize(text), chat->store());
  });
  const double rss = self_peak_rss_mb();

  // A request the agent gives up on (it drops the item after its repair
  // budget) delivers nothing: a legality and SLO miss, not an operation
  // failure. Every pattern it does deliver must be legal and full-size.
  long long delivered = 0, met = 0;
  for (int i = 0; i < n; ++i) {
    const bool one = d.delivered[static_cast<std::size_t>(i)] == 1;
    delivered += one;
    met += one && d.latency_ms[static_cast<std::size_t>(i)] <= kLimitMs;
  }
  report.info("requests.sent", static_cast<double>(n));
  report.info("requests.ok", static_cast<double>(n));
  report.info("requests.failed", 0.0);
  report.info("requests.rejected", 0.0);
  report.info("requests.undelivered", static_cast<double>(n - delivered));
  report.count_requests(n, 0);

  Quality q = quality_of(d.patterns, d.styles);
  long long full_size = 0;
  for (const auto& p : d.patterns) {
    full_size += p.topology.rows() == kSize && p.topology.cols() == kSize;
  }
  long long legal = q.legal;
  if (report.corrupt("delivered_legal")) --legal;
  const long long shipped = static_cast<long long>(d.patterns.size());
  report.check("delivered_legal", legal == shipped && full_size == shipped,
               std::to_string(legal) + " legal and " + std::to_string(full_size) + " " +
                   std::to_string(kSize) + "x" + std::to_string(kSize) + " of " +
                   std::to_string(shipped) + " delivered patterns");

  const Tail tail = sliced_tail(d.latency_ms);
  report.info("lat_tail.percentile", tail.label());
  report.info("slo.limit_ms", kLimitMs);
  report.end_to_end("setup_s", median(setup_s), "s");
  report.end_to_end("lat_p50_ms", median(d.latency_ms), "ms");
  report.end_to_end("lat_tail_ms", tail.value, "ms");
  report.end_to_end("throughput", static_cast<double>(q.legal) / d.wall_s, "1/s");
  report.end_to_end("slo_attain", static_cast<double>(met) / n, "share");
  report.end_to_end("peak_rss_mb", rss, "MB");
  report.end_to_end("legality", static_cast<double>(q.legal) / n, "share");
  report.end_to_end("diversity", q.diversity_bits, "bits");

  if (!cfg.trace) return;

  // Traced run: the same session rebuilt from the facade's public parts
  // (as core::ChatPattern assembles it) with every layer decorated.
  Accumulator acc;
  TimedGenerator generator(chat->sampler(), acc);
  cp::agent::PatternStore store;
  cp::agent::ExperienceStore experience;
  cp::agent::GeneratorBackend backend;
  backend.sampler = &generator;
  backend.legalizers = {&chat->legalizer(0), &chat->legalizer(1)};
  backend.store = &store;
  backend.window = chat->config().window;
  backend.default_stride = chat->config().window / 2;
  backend.seed_mix = chat->config().seed * 0x9e3779b97f4a7c15ULL;
  const cp::agent::ToolRegistry base = cp::agent::make_standard_tools(backend);
  const cp::agent::ToolRegistry tools = timed_tools(base, acc);
  cp::agent::ChatSession session(
      &tools, std::make_unique<TimedBrain>(std::make_unique<cp::agent::ScriptedBrain>(), acc),
      &store, &experience, chat->config().window);
  const Delivery t = run_session(cfg.seed, n, [&](const std::string& text) {
    return patterns_of(session.handle(text), store);
  });

  std::vector<std::uint64_t> traced_hashes = t.hashes;
  if (report.corrupt("traced_vs_untraced_hash")) traced_hashes.front() ^= 1;
  report.check("traced_vs_untraced_hash", traced_hashes == d.hashes,
               "per-request pattern hashes of the traced session vs the untraced one");

  const Accumulator::Stat ext = acc.get("tool.topology_extension");
  const Accumulator::Stat calls = acc.get("extension.model_calls");
  const long long n_out =
      cp::extension::expected_samples_outpaint(kSize, kSize, backend.window, kStride);
  double per_ext = ext.calls > 0 ? calls.total / ext.calls : 0;
  if (report.corrupt("extension_model_calls")) per_ext += 1;
  report.check("extension_model_calls", ext.calls > 0 && per_ext == static_cast<double>(n_out),
               std::to_string(per_ext) + " model calls per extension, N_out formula " +
                   std::to_string(n_out));

  const double per = 1.0 / n;
  report.layer("agent.format_ms", acc.get("agent.format").total * per, "ms");
  report.layer("agent.decide_ms", acc.get("agent.decide").total * per, "ms");
  report.layer("agent.steps", static_cast<double>(acc.get("agent.decide").calls) * per, "count");
  for (const char* tool : {"topology_generation", "topology_extension", "topology_legalization",
                           "topology_modification", "topology_analysis"}) {
    const Accumulator::Stat s = acc.get(std::string("tool.") + tool);
    report.layer(std::string("tool.") + tool + "_ms", s.total * per, "ms");
    report.layer(std::string("tool.") + tool + "_calls", static_cast<double>(s.calls) * per,
                 "count");
  }
  report.layer("extension.model_calls", per_ext, "count");
  report.layer("extension.self_ms",
               (ext.total - acc.get("diffusion.in.topology_extension").total) * per, "ms");
  const Accumulator::Stat legalize = acc.get("tool.topology_legalization");
  const double legalize_failed =
      static_cast<double>(acc.get("tool.topology_legalization.failed").calls);
  report.layer("agent.legalize_fail_share",
               legalize.calls > 0 ? legalize_failed / static_cast<double>(legalize.calls) : 0,
               "share");
  const Accumulator::Stat sample = acc.get("diffusion.sample");
  report.layer("diffusion.sample_ms", sample.total * per, "ms");
  report.layer("diffusion.sample_calls", static_cast<double>(sample.calls) * per, "count");
  const Accumulator::Stat modify = acc.get("diffusion.modify");
  report.layer("diffusion.modify_ms", modify.total * per, "ms");
  report.layer("diffusion.modify_calls", static_cast<double>(modify.calls) * per, "count");
  report.layer("trace.overhead_ms", median(t.latency_ms) - median(d.latency_ms), "ms");
}

}  // namespace perfbench
