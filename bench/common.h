#pragma once
// Shared setup and reporting helpers for the evaluation harness. Every bench
// binary runs standalone with sensible defaults and accepts:
//   --samples N       samples per table cell (default per bench)
//   --seed S          global seed
//   --train N         training clips per class
//   --csv FILE        also append machine-readable rows to FILE
//   --outdir DIR      directory for output artifacts (PBM/JSON; default ".")
//   --manifest FILE   enable observability and write a JSON run manifest
//                     (config, git describe, seeds, per-stage span timings,
//                     counters, result metrics) to FILE on exit — see
//                     docs/OBSERVABILITY.md
//
// Output-path policy (all benches): parent directories of any output file
// are created on demand; if a path cannot be created or opened the bench
// fails immediately with a clear message instead of silently writing
// nothing (bench::open_output / bench::require_dir).
//
// Absolute numbers are sample-count limited on one CPU core (see DESIGN.md
// S5); the orderings and gaps are what reproduces the paper.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/chatpattern.h"
#include "dataset/style.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace cp::bench {

struct Env {
  core::ChatPatternConfig config;
  std::unique_ptr<core::ChatPattern> chat;
  std::uint64_t seed = 1;
  long long samples = 0;
  std::string csv_path;
  std::string outdir = ".";
  std::string manifest_path;      // empty = no manifest
  obs::RunManifest manifest;      // tool/args/config filled by make_env

  const legalize::Legalizer& legalizer(int style) const { return chat->legalizer(style); }
};

/// Create `dir` (and parents) or die with a clear message.
/// Timed repeats behind each row of a thread-scaling table.
inline constexpr int kScalingRepeats = 3;

/// One row of a thread-scaling table: the median wall seconds of a batch at
/// `threads` compute threads, and the batch itself for the bit-identity audit.
struct ScalingRun {
  int threads = 1;
  double seconds = 0;                    // median
  double seconds_min = 0, seconds_max = 0;  // spread of the timed repeats
  std::vector<squish::Topology> batch;
};

/// Times `sample(pool)` at 1, 2, 4, ... max_threads compute threads (1 runs
/// serially, with no pool). Each count gets one untimed warm-up batch, then
/// kScalingRepeats rounds time every count once, round-robin, and the row keeps the median.
/// Without the warm-up, first-touch allocation and cold caches land on the
/// 1-thread base row; without the interleaving, a slow phase of a shared
/// machine lands on one row. Either makes a speedup read above N.
inline std::vector<ScalingRun> time_thread_counts(
    int max_threads,
    const std::function<std::vector<squish::Topology>(util::ThreadPool*)>& sample) {
  std::vector<ScalingRun> runs;
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    runs.push_back(ScalingRun{});
    runs.back().threads = threads;
    pools.push_back(threads > 1 ? std::make_unique<util::ThreadPool>(threads) : nullptr);
    runs.back().batch = sample(pools.back().get());
  }
  std::vector<std::vector<double>> sec(runs.size());
  for (int rep = 0; rep < kScalingRepeats; ++rep) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      runs[i].batch = sample(pools[i].get());
      sec[i].push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::sort(sec[i].begin(), sec[i].end());
    runs[i].seconds = sec[i][sec[i].size() / 2];
    runs[i].seconds_min = sec[i].front();
    runs[i].seconds_max = sec[i].back();
  }
  return runs;
}

inline void require_dir(const std::string& dir) {
  if (dir.empty() || dir == ".") return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "error: output directory '%s' cannot be created: %s\n", dir.c_str(),
                 ec ? ec.message().c_str() : "path exists and is not a directory");
    std::exit(2);
  }
}

/// Resolve an artifact name against --outdir (absolute paths pass through).
inline std::string out_path(const Env& env, const std::string& name) {
  if (name.empty() || name.front() == '/' || env.outdir.empty() || env.outdir == ".") {
    return name;
  }
  return env.outdir + "/" + name;
}

/// Open `path` for writing, creating parent directories. Exits with a clear
/// message on failure — a bench that cannot write its artifacts must not
/// pretend the run succeeded.
inline std::ofstream open_output(const std::string& path,
                                 std::ios::openmode mode = std::ios::out) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(target.parent_path(), ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create directory '%s' for output '%s': %s\n",
                   target.parent_path().c_str(), path.c_str(), ec.message().c_str());
      std::exit(2);
    }
  }
  std::ofstream out(path, mode);
  if (!out) {
    std::fprintf(stderr, "error: cannot open output file '%s' for writing\n", path.c_str());
    std::exit(2);
  }
  return out;
}

inline Env make_env(int argc, char** argv, long long default_samples) {
  util::CliFlags flags(argc, argv);
  Env env;
  env.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  env.samples = flags.get_int("samples", default_samples);
  env.outdir = flags.get("outdir", ".");
  require_dir(env.outdir);
  // Relative artifact paths land in --outdir like every other output.
  env.csv_path = flags.get("csv", "");
  if (!env.csv_path.empty()) env.csv_path = out_path(env, env.csv_path);
  env.manifest_path = flags.get("manifest", "");
  if (!env.manifest_path.empty()) env.manifest_path = out_path(env, env.manifest_path);
  env.config.seed = env.seed;
  env.config.train_clips_per_class = static_cast<int>(flags.get_int("train", 160));
  env.config.draws_per_bucket = static_cast<int>(flags.get_int("draws", 3));

  // Manifest bookkeeping: record the run inputs up front; metrics are added
  // by the bench as it goes and flushed by write_manifest.
  env.manifest.tool = std::filesystem::path(flags.program()).filename().string();
  for (int i = 1; i < argc; ++i) env.manifest.args.push_back(argv[i]);
  env.manifest.config["seed"] = static_cast<long long>(env.seed);
  env.manifest.config["samples"] = env.samples;
  env.manifest.config["train_clips_per_class"] = env.config.train_clips_per_class;
  env.manifest.config["draws_per_bucket"] = env.config.draws_per_bucket;
  env.manifest.config["outdir"] = env.outdir;
  if (!env.manifest_path.empty()) obs::Registry::global().set_enabled(true);

  std::printf("[setup] training backend (%d clips/class, seed %llu)...\n",
              env.config.train_clips_per_class,
              static_cast<unsigned long long>(env.seed));
  std::fflush(stdout);
  {
    const obs::Span span = obs::trace_scope("bench/setup");
    env.chat = std::make_unique<core::ChatPattern>(env.config);
  }
  return env;
}

/// Write the run manifest when --manifest was given; no-op otherwise. Call
/// once at the end of main (extra metrics can be merged in beforehand via
/// env.manifest.metrics). Exits non-zero if the manifest cannot be written.
inline void write_manifest(Env& env) {
  if (env.manifest_path.empty()) return;
  std::string error;
  if (!env.manifest.write(env.manifest_path, obs::Registry::global(), &error)) {
    std::fprintf(stderr, "error: manifest: %s\n", error.c_str());
    std::exit(2);
  }
  std::printf("[manifest] wrote %s\n", env.manifest_path.c_str());
}

inline void csv_row(const Env& env, const std::string& line) {
  if (env.csv_path.empty()) return;
  std::ofstream out = open_output(env.csv_path, std::ios::app);
  out << line << "\n";
}

/// Print a Table-1-style row.
inline void print_row(const char* task, const char* method, const char* training,
                      const char* dataset, double legality_pct, double diversity,
                      bool has_legality = true) {
  if (has_legality) {
    std::printf("%-10s | %-24s | %-17s | %-11s | %7.2f%% | %7.3f\n", task, method, training,
                dataset, legality_pct, diversity);
  } else {
    std::printf("%-10s | %-24s | %-17s | %-11s |     /    | %7.3f\n", task, method, training,
                dataset, diversity);
  }
}

inline void print_header() {
  std::printf("%-10s | %-24s | %-17s | %-11s | %8s | %7s\n", "Task", "Set/Method",
              "Training Set", "Dataset", "Legality", "Divers.");
  std::printf("%s\n", std::string(95, '-').c_str());
}

/// Per-style physical budget for a topology of the given size at the native
/// 16 nm/cell scale.
inline geometry::Coord physical_for(const Env& env, int topo_size) {
  return static_cast<geometry::Coord>(topo_size) * env.chat->nm_per_cell();
}

}  // namespace cp::bench
