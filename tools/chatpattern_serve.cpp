// chatpattern_serve — serving front-end of the repo (docs/SERVING.md).
//
// Four modes sharing one NDJSON protocol (one JSON object per line):
//
//   (default)        Offline trace replay through an in-process
//                    serve::Server. Emits one result line per input line in
//                    input order. Malformed input lines yield a "rejected"
//                    result line (count parity), are reported to stderr
//                    with their line number, and make the exit code 1.
//   --listen         Multi-process TCP front-end: binds --host/--port,
//                    forks --procs worker processes (re-exec of this
//                    binary), supervises them (heartbeats, request
//                    watchdog, exponential-backoff restarts) and routes
//                    client request lines to consistent-hash shards. Runs
//                    until a {"cmd":"shutdown"} line.
//   --worker-fd K    Internal: worker-process mode, spawned by --listen.
//                    Serves its shard over the inherited channel fd K.
//   --connect-port P Replay a trace over TCP against a running --listen
//                    front-end (pipelined over --conns connections) and
//                    print the same combined-hash summary as the offline
//                    replay — the cross-process determinism audit.
//
// Offline replay / worker flags (on top of bench/common.h's --seed,
// --train, --draws, --outdir, --manifest, --csv):
//   --trace FILE      NDJSON request trace ("-" = stdin; default "-")
//   --out FILE        result NDJSON destination (default: stdout)
//   --workers N       in-process fan-out width (1 = serial; default 1)
//   --queue N         admission queue capacity (default 64)
//   --cache N         result-cache entries (default 256)
//   --max-batch N     microbatch size cap in requests (default 8)
//   --max-wait-us N   microbatch fill wait (default 2000)
//
// --listen flags:
//   --host H --port P (port 0 = ephemeral), --procs N (workers; default 2),
//   --journal FILE (request ledger), --port-file FILE (bound port, written
//   once ready to accept), --state-file FILE (live {port,pid,workers}
//   JSON, atomically rewritten on every membership change — the chaos
//   harness reads worker pids here), --max-inflight N, --tenant-quota N,
//   --idle-timeout-ms N, --hb-timeout-ms N, --watchdog-ms N,
//   --startup-timeout-ms N, --drain-timeout-ms N, --worker-hb-ms N.
//   Worker processes inherit --seed/--train/--draws/--workers/--queue/
//   --cache/--max-batch/--max-wait-us.
//
// --connect-port flags: --connect-host H (default 127.0.0.1), --conns N,
//   --replay-timeout-ms N, plus --trace/--out as in replay mode.
//
// Every argument is a flag: a bare word (say, a trace file passed without
// --trace) prints usage and exits 2.
//
// Exit codes: 0 = success; 1 = trace contained malformed lines (replay
// modes); 2 = unexpected argument, or cannot read trace / write outputs /
// bind; 3 = TCP replay did not complete (connection lost or timed out).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "serve/client.h"
#include "serve/net_server.h"
#include "serve/server.h"
#include "serve/worker.h"
#include "util/cli.h"
#include "util/fs.h"
#include "util/net.h"
#include "util/subprocess.h"

using namespace cp;

namespace {

/// Shared server-config flags (offline replay and worker mode alike).
serve::ServerConfig server_config_from_flags(const util::CliFlags& flags) {
  serve::ServerConfig config;
  config.workers = static_cast<int>(flags.get_int("workers", 1));
  config.queue_capacity = static_cast<std::size_t>(flags.get_int("queue", 64));
  config.cache_entries = static_cast<std::size_t>(flags.get_int("cache", 256));
  config.batch.max_batch_requests = static_cast<int>(flags.get_int("max-batch", 8));
  config.batch.max_wait_us = flags.get_int("max-wait-us", 2000);
  return config;
}

/// Read the --trace input (file or stdin) into lines. Returns false on an
/// unreadable file.
bool read_trace(const std::string& trace_path, std::vector<std::string>* lines) {
  std::ifstream trace_file;
  std::istream* trace = &std::cin;
  if (trace_path != "-") {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "error: cannot open trace file '%s'\n", trace_path.c_str());
      return false;
    }
    trace = &trace_file;
  }
  std::string line;
  while (std::getline(*trace, line)) lines->push_back(line);
  return true;
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

int run_replay_mode(int argc, char** argv) {
  bench::Env env = bench::make_env(argc, argv, /*default_samples=*/0);
  util::CliFlags flags(argc, argv);
  const std::string trace_path = flags.get("trace", "-");
  const std::string out_path = flags.get("out", "");

  serve::ServerConfig config = server_config_from_flags(flags);

  std::vector<std::string> trace_lines;
  if (!read_trace(trace_path, &trace_lines)) return 2;

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    out_file = bench::open_output(bench::out_path(env, out_path));
    out = &out_file;
  }

  const std::vector<const legalize::Legalizer*> legalizers = {&env.chat->legalizer(0),
                                                              &env.chat->legalizer(1)};
  // Degraded-mode fallback: when the cascade sampler's retry budget is
  // exhausted (injected or real faults), requests are served from the
  // single-resolution fine sampler and marked degraded instead of failing.
  config.fallback = &env.chat->fine_sampler();
  serve::Server server(env.chat->sampler(), legalizers, config);

  // One slot per input line, in input order. Parse failures complete
  // immediately; valid lines hold the future of their submission.
  struct Slot {
    std::string id;
    bool submitted = false;
    std::future<serve::GenerationResult> future;
    serve::GenerationResult immediate;  // used when !submitted
  };
  std::vector<Slot> slots;
  long long line_no = 0;
  long long malformed = 0;
  for (const std::string& line : trace_lines) {
    ++line_no;
    if (blank(line)) continue;
    Slot slot;
    serve::ParsedRequest parsed = serve::parse_request_line(line);
    if (!parsed.ok) {
      obs::count("serve/rejected_parse");
      ++malformed;
      // Strict-input contract: every malformed line is named to stderr and
      // fails the replay's exit code — but still yields a result line, so
      // result count always equals request count.
      std::fprintf(stderr, "[serve] malformed line %lld: %s\n", line_no, parsed.error.c_str());
      slot.id = util::format("line-%lld", line_no);
      slot.immediate.id = slot.id;
      slot.immediate.status = serve::RequestStatus::kRejected;
      slot.immediate.reason = "parse_error: " + parsed.error;
      slots.push_back(std::move(slot));
      continue;
    }
    slot.id = parsed.request.id;
    serve::Server::Submitted submitted = server.submit(std::move(parsed.request));
    slot.submitted = true;
    slot.future = std::move(submitted.result);
    slots.push_back(std::move(slot));
  }

  // Collect in input order; each get() blocks until that request completes.
  std::uint64_t combined = 1469598103934665603ULL;
  auto fnv = [&combined](std::uint64_t v) {
    combined ^= v;
    combined *= 1099511628211ULL;
  };
  long long ok = 0, incomplete = 0, rejected = 0, expired = 0, cancelled = 0, failed = 0;
  long long cache_hits = 0, deduped = 0, degraded = 0;
  for (Slot& slot : slots) {
    serve::GenerationResult result =
        slot.submitted ? slot.future.get() : std::move(slot.immediate);
    switch (result.status) {
      case serve::RequestStatus::kOk: ++ok; break;
      case serve::RequestStatus::kIncomplete: ++incomplete; break;
      case serve::RequestStatus::kRejected: ++rejected; break;
      case serve::RequestStatus::kDeadlineExpired: ++expired; break;
      case serve::RequestStatus::kCancelled: ++cancelled; break;
      case serve::RequestStatus::kFailed: ++failed; break;
    }
    if (result.cache_hit) ++cache_hits;
    if (result.deduped) ++deduped;
    if (result.degraded) ++degraded;
    fnv(result.library_hash());
    (*out) << result.to_json().dump() << "\n";
  }
  out->flush();
  server.shutdown();

  std::fprintf(stderr,
               "[serve] replayed %zu requests: ok %lld, incomplete %lld, rejected %lld, "
               "expired %lld, cancelled %lld, failed %lld; cache hits %lld, deduped %lld, "
               "degraded %lld\n",
               slots.size(), ok, incomplete, rejected, expired, cancelled, failed,
               cache_hits, deduped, degraded);
  std::fprintf(stderr, "[serve] combined_hash %016llx workers %d\n",
               static_cast<unsigned long long>(combined), config.workers);
  if (malformed > 0) {
    std::fprintf(stderr, "[serve] %lld malformed trace line(s); exiting nonzero\n", malformed);
  }

  env.manifest.metrics["requests"] = static_cast<long long>(slots.size());
  env.manifest.metrics["ok"] = ok;
  env.manifest.metrics["incomplete"] = incomplete;
  env.manifest.metrics["rejected"] = rejected;
  env.manifest.metrics["failed"] = failed;
  env.manifest.metrics["degraded"] = degraded;
  env.manifest.metrics["cache_hits"] = cache_hits;
  env.manifest.metrics["deduped"] = deduped;
  env.manifest.metrics["malformed"] = malformed;
  env.manifest.metrics["workers"] = config.workers;
  env.manifest.metrics["combined_hash"] =
      util::format("%016llx", static_cast<unsigned long long>(combined));
  bench::write_manifest(env);
  return malformed > 0 ? 1 : 0;
}

int run_worker_mode(int argc, char** argv) {
  bench::Env env = bench::make_env(argc, argv, /*default_samples=*/0);
  util::CliFlags flags(argc, argv);
  serve::ServerConfig config = server_config_from_flags(flags);
  const std::vector<const legalize::Legalizer*> legalizers = {&env.chat->legalizer(0),
                                                              &env.chat->legalizer(1)};
  config.fallback = &env.chat->fine_sampler();

  serve::WorkerOptions options;
  options.channel_fd = static_cast<int>(flags.get_int("worker-fd", -1));
  options.shard = static_cast<int>(flags.get_int("shard", 0));
  options.heartbeat_ms = static_cast<int>(flags.get_int("worker-hb-ms", 200));
  if (options.channel_fd < 0) {
    std::fprintf(stderr, "error: --worker-fd requires a valid fd\n");
    return 2;
  }
  return serve::run_worker(env.chat->sampler(), legalizers, config, options);
}

int run_listen_mode(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  serve::NetServerConfig config;
  config.host = flags.get("host", "127.0.0.1");
  config.port = static_cast<int>(flags.get_int("port", 0));
  config.max_inflight = flags.get_int("max-inflight", 16384);
  config.tenant_quota = flags.get_int("tenant-quota", 0);
  config.idle_timeout_ms = static_cast<int>(flags.get_int("idle-timeout-ms", 60000));
  config.drain_timeout_ms = static_cast<int>(flags.get_int("drain-timeout-ms", 15000));
  config.journal_path = flags.get("journal", "");
  config.state_file = flags.get("state-file", "");
  config.supervisor.workers = static_cast<int>(flags.get_int("procs", 2));
  config.supervisor.heartbeat_timeout_ms =
      static_cast<int>(flags.get_int("hb-timeout-ms", 2000));
  config.supervisor.startup_timeout_ms =
      static_cast<int>(flags.get_int("startup-timeout-ms", 120000));
  config.supervisor.watchdog_ms = static_cast<int>(flags.get_int("watchdog-ms", 20000));
  config.supervisor.backoff_base_ms = static_cast<int>(flags.get_int("backoff-base-ms", 100));
  config.supervisor.backoff_max_ms = static_cast<int>(flags.get_int("backoff-max-ms", 5000));
  config.supervisor.min_uptime_ms = static_cast<int>(flags.get_int("min-uptime-ms", 5000));

  // Worker spawn command: this binary, re-exec'd with the training and
  // in-worker serving knobs forwarded verbatim. The pool appends
  // --worker-fd/--shard per spawn; CHATPATTERN_FAULTS reaches workers via
  // the inherited environment.
  const std::string self = util::self_exe_path(argv[0]);
  config.worker_argv = {self};
  for (const char* flag :
       {"seed", "train", "draws", "workers", "queue", "cache", "max-batch", "max-wait-us",
        "worker-hb-ms"}) {
    if (flags.has(flag)) {
      config.worker_argv.push_back(std::string("--") + flag);
      config.worker_argv.push_back(flags.get(flag, ""));
    }
  }

  try {
    serve::NetServer server(config);
    const std::string port_file = flags.get("port-file", "");
    if (!port_file.empty()) {
      util::atomic_write_file(port_file, std::to_string(server.port()) + "\n");
    }
    std::fprintf(stderr, "[serve] listening on %s:%d with %d worker process(es)\n",
                 config.host.c_str(), server.port(), config.supervisor.workers);
    const int rc = server.run();
    std::fprintf(stderr,
                 "[serve] front-end done: accepted %lld, completed %lld, outstanding %lld\n",
                 server.ledger().accepted(), server.ledger().completed(),
                 server.ledger().outstanding());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

int run_connect_mode(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::string trace_path = flags.get("trace", "-");
  const std::string out_path = flags.get("out", "");

  std::vector<std::string> raw;
  if (!read_trace(trace_path, &raw)) return 2;
  std::vector<std::string> lines;
  for (const std::string& line : raw) {
    if (!blank(line)) lines.push_back(line);
  }

  serve::ReplayClientOptions options;
  options.host = flags.get("connect-host", "127.0.0.1");
  options.port = static_cast<int>(flags.get_int("connect-port", 0));
  options.connections = static_cast<int>(flags.get_int("conns", 4));
  options.overall_timeout_ms = static_cast<int>(flags.get_int("replay-timeout-ms", 600000));

  const serve::ReplayReport report = serve::replay_over_tcp(lines, options);

  std::ofstream out_file;
  std::ostream* out = &std::cout;
  if (!out_path.empty()) {
    out_file = bench::open_output(out_path);
    out = &out_file;
  }
  long long ok = 0, failed = 0, rejected = 0, other = 0, degraded = 0, cache_hits = 0;
  for (const auto& o : report.outcomes) {
    if (o.status == "ok") ++ok;
    else if (o.status == "failed") ++failed;
    else if (o.status == "rejected") ++rejected;
    else ++other;
    if (o.degraded) ++degraded;
    if (o.cache_hit) ++cache_hits;
    util::Json j;
    j["id"] = o.id;
    j["status"] = o.status;
    j["answered"] = o.answered;
    j["library_hash"] = util::format("%016llx",
                                     static_cast<unsigned long long>(o.library_hash));
    if (o.degraded) j["degraded"] = true;
    if (o.cache_hit) j["cache_hit"] = true;
    j["latency_ms"] = o.latency_ms;
    (*out) << j.dump() << "\n";
  }
  out->flush();

  std::fprintf(stderr,
               "[serve] tcp replay %lld requests: answered %lld, ok %lld, failed %lld, "
               "rejected %lld, other %lld; cache hits %lld, degraded %lld\n",
               report.sent, report.answered, ok, failed, rejected, other, cache_hits,
               degraded);
  std::fprintf(stderr, "[serve] combined_hash %016llx conns %d\n",
               static_cast<unsigned long long>(report.combined_hash), options.connections);
  if (!report.ok) {
    std::fprintf(stderr, "error: tcp replay incomplete: %s\n", report.error.c_str());
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  if (!flags.positional().empty()) {
    // Every input is a flag; a bare word is most likely a trace file passed
    // without --trace, which would otherwise replay stdin.
    std::fprintf(stderr,
                 "error: unexpected argument '%s'\n"
                 "usage: %s [--trace FILE] [--out FILE] [flags...]\n"
                 "(the flags are listed in tools/chatpattern_serve.cpp)\n",
                 flags.positional().front().c_str(), argv[0]);
    return 2;
  }
  if (flags.has("worker-fd")) return run_worker_mode(argc, argv);
  if (flags.has("listen")) return run_listen_mode(argc, argv);
  if (flags.has("connect-port")) return run_connect_mode(argc, argv);
  return run_replay_mode(argc, argv);
}
