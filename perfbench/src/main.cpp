// perfbench: the repository's end-to-end benchmark program (README.md in
// this directory). Usually started by run.py, which builds it first:
//
//   perfbench --workload serve_cold --seed 3 --seconds 12 --trace 0
//             --serve-bin .bench_build/chatpattern_serve --workdir DIR
//
// Prints info/metric/check lines, then one JSON result line. Exit code 0
// when every correctness check passed, 1 when one failed, 2 on a usage or
// set-up error (no result line).

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "util/cli.h"
#include "util/logging.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Every per-layer metric a traced run reports. A workload that does not
// pass through a layer reports it as 0 (no calls, no time).
const std::vector<Metric> kLayers = {
    {"serve.frontend_ms", 0, "ms"},          {"serve.queue_wait_ms", 0, "ms"},
    {"serve.service_ms", 0, "ms"},           {"serve.attempts_per_pattern", 0, "ratio"},
    {"serve.cache_hit_share", 0, "share"},   {"serve.accepted", 0, "count"},
    {"serve.completed", 0, "count"},         {"serve.worker_restarts", 0, "count"},
    {"serve.frontend_rss_mb", 0, "MB"},      {"serve.worker_rss_mb", 0, "MB"},
    {"load.late_ms_max", 0, "ms"},           {"diffusion.sample_ms", 0, "ms"},
    {"diffusion.sample_calls", 0, "count"},  {"serve.nonsample_ms", 0, "ms"},
    {"diffusion.modify_ms", 0, "ms"},        {"diffusion.modify_calls", 0, "count"},
    {"agent.format_ms", 0, "ms"},            {"agent.decide_ms", 0, "ms"},
    {"agent.steps", 0, "count"},             {"tool.topology_generation_ms", 0, "ms"},
    {"tool.topology_generation_calls", 0, "count"},
    {"tool.topology_extension_ms", 0, "ms"}, {"tool.topology_extension_calls", 0, "count"},
    {"tool.topology_legalization_ms", 0, "ms"},
    {"tool.topology_legalization_calls", 0, "count"},
    {"tool.topology_modification_ms", 0, "ms"},
    {"tool.topology_modification_calls", 0, "count"},
    {"tool.topology_analysis_ms", 0, "ms"},  {"tool.topology_analysis_calls", 0, "count"},
    {"extension.model_calls", 0, "count"},   {"extension.self_ms", 0, "ms"},
    {"agent.legalize_fail_share", 0, "share"},
    {"io.stream_ms", 0, "ms"},               {"io.mb_per_s", 0, "MB/s"},
    {"pattlib.window_ms", 0, "ms"},          {"pattlib.add_ms", 0, "ms"},
    {"pattlib.dedup_share", 0, "share"},     {"pattlib.flush_ms", 0, "ms"},
    {"pattlib.replay_ms", 0, "ms"},          {"pattlib.query_ms", 0, "ms"},
    {"trace.overhead_ms", 0, "ms"},
};

const std::vector<std::string> kEndToEnd = {"setup_s",    "lat_p50_ms", "lat_tail_ms",
                                            "throughput", "slo_attain", "peak_rss_mb",
                                            "legality",   "diversity"};

}  // namespace

int main(int argc, char** argv) {
  cp::util::CliFlags flags(argc, argv);
  RunConfig cfg;
  cfg.workload = flags.get("workload", "");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  cfg.seconds = static_cast<int>(flags.get_int("seconds", 10));
  cfg.trace = flags.get_int("trace", 0) != 0;
  cfg.serve_bin = flags.get("serve-bin", "");
  cfg.workdir = flags.get("workdir", "");
  cfg.model_cache = flags.get("model-cache", "");
  if (cfg.workload.empty() || cfg.serve_bin.empty() || cfg.workdir.empty() || cfg.seconds < 1) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--serve-bin PATH --workdir DIR [--model-cache FILE] "
                 "[--corrupt CHECK] [--describe TEXT]\n");
    return 2;
  }
  cp::util::set_log_level(cp::util::LogLevel::kWarn);
  std::filesystem::create_directories(cfg.workdir);

  Report report(flags.get("corrupt", ""));
  report.info("workload", cfg.workload);
  report.info("seed", std::to_string(cfg.seed));
  report.info("seconds", std::to_string(cfg.seconds));
  report.info("trace", cfg.trace ? "1" : "0");
  report.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.info("git_describe", flags.get("describe", "unknown"));
  try {
    if (cfg.workload == "serve_cold") {
      run_serve_cold(cfg, report);
    } else if (cfg.workload == "serve_hot") {
      run_serve_hot(cfg, report);
    } else if (cfg.workload == "agent_freesize") {
      run_agent_freesize(cfg, report);
    } else if (cfg.workload == "library_ingest") {
      run_library_ingest(cfg, report);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n", cfg.workload.c_str());
      return 2;
    }
    report.require_end_to_end(kEndToEnd);
    if (cfg.trace) report.fill_layers(kLayers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return report.finish(cfg.trace);
}
