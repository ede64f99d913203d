// Parallel batch-generation scaling: samples/sec of the ablation-sampler
// workload (default cascade at 128^2, 16 visited steps) at 1/2/4/8 worker
// threads (each row the median of 3 interleaved, warmed-up batches; see
// bench::time_thread_counts), plus a determinism audit — every thread count
// must produce a bit-identical batch, because sample i always consumes Rng stream fork(i)
// (see diffusion/batch_sampler.h). Results are written to
// BENCH_parallel.json (override with --json FILE).
//
// Extra flags on top of bench/common.h: --json FILE, --maxthreads N.
// Speedup is bounded by the machine: on a single-core container every row
// measures ~1x and the JSON records hardware_threads so readers can tell
// scheduler overhead from genuine scaling.

#include "bench/common.h"
#include "diffusion/batch_sampler.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace cp;

namespace {

/// Order-sensitive FNV-1a over the batch contents, for cheap bit-identity
/// comparison between thread counts.
std::uint64_t batch_hash(const std::vector<squish::Topology>& batch) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& t : batch) {
    mix(static_cast<std::uint64_t>(t.rows()));
    mix(static_cast<std::uint64_t>(t.cols()));
    for (int r = 0; r < t.rows(); ++r) {
      for (int c = 0; c < t.cols(); ++c) mix(t.at(r, c));
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Env env = bench::make_env(argc, argv, /*default_samples=*/8);
  util::CliFlags flags(argc, argv);
  const std::string json_path = bench::out_path(env, flags.get("json", "BENCH_parallel.json"));
  const int max_threads = static_cast<int>(flags.get_int("maxthreads", 8));
  const int n = static_cast<int>(env.samples);

  // The ablation-sampler workload: the default cascade over tabular
  // denoisers (thread-safe inference), style Layer-10001 at 128^2.
  std::vector<std::vector<squish::Topology>> fine_data, coarse_data;
  for (int s = 0; s < 2; ++s) {
    fine_data.push_back(env.chat->training_set(s).topologies);
    std::vector<squish::Topology> coarse;
    for (const auto& t : fine_data.back()) coarse.push_back(squish::downsample_majority(t, 4));
    coarse_data.push_back(std::move(coarse));
  }
  diffusion::TabularConfig tc;
  tc.conditions = 2;
  tc.draws_per_bucket = env.config.draws_per_bucket;
  const auto fine = diffusion::fit_tabular(env.chat->schedule(), tc, fine_data, env.seed + 41);
  const auto coarse =
      diffusion::fit_tabular(env.chat->schedule(), tc, coarse_data, env.seed + 42);
  const diffusion::CascadeSampler cascade(env.chat->schedule(), coarse, fine,
                                          diffusion::CascadeConfig{});

  diffusion::SampleConfig sc;
  sc.condition = 0;
  sc.sample_steps = 16;
  const util::Rng root(env.seed + 7000);

  std::printf("\n== Parallel batch scaling (cascade 128^2, %d samples per row) ==\n", n);
  std::printf("hardware threads: %d\n\n", util::ThreadPool::hardware_threads());
  std::printf("%8s | %9s | %11s | %8s | %s\n", "threads", "seconds", "samples/sec", "speedup",
              "batch hash");
  std::printf("%s\n", std::string(64, '-').c_str());

  util::JsonArray rows;
  double base_sec = 0.0;
  std::uint64_t base_hash = 0;
  bool deterministic = true;
  for (const bench::ScalingRun& run :
       bench::time_thread_counts(max_threads, [&](util::ThreadPool* pool) {
         return diffusion::BatchSampler(cascade, pool).sample_batch(sc, n, root);
       })) {
    const int threads = run.threads;
    const double sec = run.seconds;
    const std::uint64_t h = batch_hash(run.batch);
    if (threads == 1) {
      base_sec = sec;
      base_hash = h;
    }
    deterministic = deterministic && h == base_hash;
    const double rate = static_cast<double>(n) / sec;
    std::printf("%8d | %9.3f | %11.3f | %7.2fx | %016llx%s\n", threads, sec, rate,
                base_sec / sec, static_cast<unsigned long long>(h),
                h == base_hash ? "" : "  << MISMATCH");
    bench::csv_row(env, util::format("parallel_scaling,%d,%.4f,%.4f", threads, sec, rate));

    util::JsonObject row;
    row["threads"] = threads;
    row["seconds"] = sec;
    row["seconds_min"] = run.seconds_min;
    row["seconds_max"] = run.seconds_max;
    row["samples_per_sec"] = rate;
    row["speedup_vs_1"] = base_sec / sec;
    row["bit_identical_to_1_thread"] = h == base_hash;
    rows.push_back(util::Json(std::move(row)));
  }

  env.manifest.metrics["deterministic_across_thread_counts"] = deterministic;
  env.manifest.metrics["rows"] = util::Json(rows);

  util::JsonObject report;
  report["bench"] = "parallel_scaling";
  report["workload"] = "cascade sampler, 128x128, 16 visited steps, style Layer-10001";
  report["samples"] = n;
  report["repeats"] = bench::kScalingRepeats;
  report["seed"] = static_cast<long long>(env.seed);
  report["hardware_threads"] = util::ThreadPool::hardware_threads();
  report["deterministic_across_thread_counts"] = deterministic;
  report["rows"] = util::Json(std::move(rows));
  std::ofstream out = bench::open_output(json_path);
  out << util::Json(std::move(report)).dump(2) << "\n";
  std::printf("\ndeterministic across thread counts: %s\nreport: %s\n",
              deterministic ? "yes" : "NO", json_path.c_str());
  bench::write_manifest(env);
  return deterministic ? 0 : 1;
}
