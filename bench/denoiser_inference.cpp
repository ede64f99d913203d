// Neural-denoiser inference throughput on the blocked-GEMM + stateless-infer
// path (nn/gemm.h, nn::Workspace), serial and parallel: the portable 8-wide
// kernel, the AVX2 fp32 and int8 vector tiers against it, the bit-packed
// substrate kernels against the byte-grid test oracles, and BatchSampler
// scaling. Every bit-identity audit folds into the exit code.
//
// Writes BENCH_denoiser.json (override --json FILE) with single-thread
// grid/pixel timings and BatchSampler scaling rows (hardware_threads
// recorded, like parallel_scaling — on a 1-core container every scaling row
// measures ~1x).
//
// Flags: --seed S --grid N --reps N --pixelreps N --maxthreads N
//        --json FILE --outdir DIR --manifest FILE

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "diffusion/batch_sampler.h"
#include "diffusion/mlp_denoiser.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/transition.h"
#include "drc/checker.h"
#include "nn/gemm.h"
#include "tests/diffusion/reference.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace cp;

namespace {

squish::Topology stripes(int n, int period) {
  squish::Topology t(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) t.set(r, c, (c / period) % 2);
  }
  return t;
}

/// Best mean-per-call over three passes: the minimum discards scheduler noise
/// (this runs on shared 1-core containers) symmetrically for both paths.
template <typename F>
double seconds_per_call(int reps, F&& f) {
  f(0);  // warm up caches / workspaces outside the timed region
  const int per_pass = reps < 3 ? reps : reps / 3;
  double best = 0.0;
  int i = 0;
  for (int pass = 0; pass * per_pass < reps; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int j = 0; j < per_pass; ++j) f(i++);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() / per_pass;
    if (pass == 0 || sec < best) best = sec;
  }
  return best;
}

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

/// One packed-vs-byte microkernel row: print, record, and fold the
/// bit-identity verdict into the process exit code.
util::Json substrate_row(const char* name, double byte_sec, double packed_sec, bool identical,
                         bool& all_identical) {
  all_identical = all_identical && identical;
  std::printf("%-14s: byte %9.3f ms  packed %9.3f ms  speedup %5.2fx  %s\n", name,
              byte_sec * 1e3, packed_sec * 1e3, byte_sec / packed_sec,
              identical ? "bit-identical" : "<< MISMATCH");
  util::JsonObject row;
  row["byte_ms"] = byte_sec * 1e3;
  row["packed_ms"] = packed_sec * 1e3;
  row["speedup"] = byte_sec / packed_sec;
  row["bit_identical"] = identical;
  return util::Json(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const int grid_n = static_cast<int>(flags.get_int("grid", 64));
  const int reps = static_cast<int>(flags.get_int("reps", 20));
  const int pixel_reps = static_cast<int>(flags.get_int("pixelreps", 20000));
  const int max_threads = static_cast<int>(flags.get_int("maxthreads", 8));
  const std::string outdir = flags.get("outdir", ".");
  bench::require_dir(outdir);
  auto resolve = [&](std::string name) {
    if (name.empty() || name.front() == '/' || outdir.empty() || outdir == ".") return name;
    return outdir + "/" + name;
  };
  const std::string json_path = resolve(flags.get("json", "BENCH_denoiser.json"));
  const std::string manifest_path = resolve(flags.get("manifest", ""));
  if (!manifest_path.empty()) obs::Registry::global().set_enabled(true);

  // The MLP the kernels were tuned for: feature_dim 23 -> 64 -> 64 -> 1.
  const diffusion::NoiseSchedule schedule{diffusion::ScheduleConfig{}};
  util::Rng rng(seed);
  const diffusion::MlpDenoiser d(schedule, diffusion::MlpConfig{2, 64, 2}, rng);
  // The int8 tier is a model property: an int8 twin with the same weights.
  util::Rng twin_rng(seed);
  const diffusion::MlpDenoiser dq(schedule, diffusion::MlpConfig{2, 64, 2, true}, twin_rng);
  const squish::Topology x0 = stripes(grid_n, 3);
  util::Rng noise_rng(seed + 1);
  const squish::Topology xk = diffusion::forward_noise(x0, schedule, 40, noise_rng);

  std::printf("== Denoiser inference (MLP %d-dim features, grid %dx%d) ==\n", d.feature_dim(),
              grid_n, grid_n);
  std::printf("hardware threads: %d\n\n", util::ThreadPool::hardware_threads());

  // --- Single-thread grid forward and pixel query (the sequential reverse
  // sampler's hot loop: re-querying one pixel at a time at a fixed step).
  // SIMD dispatch off: grid_new_ms/pixel_new_us time the portable 8-wide
  // kernel, comparable across report generations; the 16-wide AVX2
  // and int8 tiers are measured against it in the vector-tier section below.
  nn::gemm::set_simd_enabled(false);
  diffusion::ProbGrid p_new;
  const double grid_new =
      seconds_per_call(reps, [&](int i) { d.predict_x0(xk, 40, i % 2, p_new); });
  double sink = 0.0;
  const double pixel_new = seconds_per_call(pixel_reps, [&](int i) {
    sink += d.predict_x0_pixel(xk, i % grid_n, (i / grid_n) % grid_n, 40, 0);
  });
  std::printf("grid forward : %8.3f ms\npixel query  : %8.2f us\n\n", grid_new * 1e3,
              pixel_new * 1e6);

  // --- Vector tiers (DESIGN.md "Quantized inference"): the 16-wide AVX2
  // fp32 tile must be bit-identical to the portable baseline above; the
  // opt-in int8 tier trades a bounded probability error for throughput.
  const bool have_avx2 = nn::gemm::cpu_has_avx2();
  diffusion::ProbGrid p_base, p_vec, p_q;
  d.predict_x0(xk, 40, 0, p_base);  // still SIMD-off: the reference bits
  nn::gemm::set_simd_enabled(true);
  d.predict_x0(xk, 40, 0, p_vec);
  bool vec_identical = p_base.size() == p_vec.size();
  for (std::size_t i = 0; vec_identical && i < p_base.size(); ++i) {
    vec_identical = p_base[i] == p_vec[i];
  }
  const double grid_vec =
      seconds_per_call(reps, [&](int i) { d.predict_x0(xk, 40, i % 2, p_vec); });
  const double pixel_vec = seconds_per_call(pixel_reps, [&](int i) {
    sink += d.predict_x0_pixel(xk, i % grid_n, (i / grid_n) % grid_n, 40, 0);
  });

  double int8_maxdiff = 0.0;
  dq.predict_x0(xk, 40, 0, p_q);
  for (std::size_t i = 0; i < p_base.size() && i < p_q.size(); ++i) {
    const double diff = std::abs(static_cast<double>(p_base[i]) - p_q[i]);
    if (diff > int8_maxdiff) int8_maxdiff = diff;
  }
  const double grid_int8 =
      seconds_per_call(reps, [&](int i) { dq.predict_x0(xk, 40, i % 2, p_q); });
  const double pixel_int8 = seconds_per_call(pixel_reps, [&](int i) {
    sink += dq.predict_x0_pixel(xk, i % grid_n, (i / grid_n) % grid_n, 40, 0);
  });
  const bool int8_close = int8_maxdiff < 0.1;  // coarse sanity; the real gate
                                               // is quant_quality_test

  // Batched row query: predict_x0_row amortizes the neighbourhood gather and
  // the kernel launch over a whole row; per-pixel it must reproduce
  // predict_x0_pixel bit-for-bit on the fp32 path.
  std::vector<float> row_out(static_cast<std::size_t>(grid_n));
  bool row_identical = true;
  for (int r : {0, grid_n / 2, grid_n - 1}) {
    d.predict_x0_row(xk, r, 40, 0, row_out.data());
    for (int c = 0; row_identical && c < grid_n; ++c) {
      row_identical = row_out[static_cast<std::size_t>(c)] == d.predict_x0_pixel(xk, r, c, 40, 0);
    }
  }
  const int row_reps = std::max(3, pixel_reps / grid_n);
  const double row_fp32 = seconds_per_call(row_reps, [&](int i) {
                            d.predict_x0_row(xk, i % grid_n, 40, 0, row_out.data());
                            sink += row_out[0];
                          }) /
                          grid_n;
  const double row_int8 = seconds_per_call(row_reps, [&](int i) {
                            dq.predict_x0_row(xk, i % grid_n, 40, 0, row_out.data());
                            sink += row_out[0];
                          }) /
                          grid_n;

  std::printf("== Vector tiers (avx2 %s) ==\n", have_avx2 ? "available" : "unavailable");
  std::printf("grid forward : fp32-vec %8.3f ms (%.2fx, %s)  int8 %8.3f ms (%.2fx, maxdiff %.4f)\n",
              grid_vec * 1e3, grid_new / grid_vec, vec_identical ? "bit-identical" : "<< MISMATCH",
              grid_int8 * 1e3, grid_new / grid_int8, int8_maxdiff);
  std::printf("pixel query  : fp32-vec %8.2f us (%.2fx)  int8 %8.2f us (%.2fx)\n",
              pixel_vec * 1e6, pixel_new / pixel_vec, pixel_int8 * 1e6, pixel_new / pixel_int8);
  std::printf("row query    : fp32-vec %8.2f us/px (%.2fx vs pixel, %s)  int8 %8.2f us/px\n\n",
              row_fp32 * 1e6, pixel_new / row_fp32,
              row_identical ? "bit-identical" : "<< MISMATCH", row_int8 * 1e6);
  bool bit_identical = vec_identical && row_identical && int8_close;

  // --- Packed substrate microkernels: the bit-packed Topology (64 cells per
  // uint64_t word, docs/GRID.md) against the retained byte-per-cell reference
  // (squish::ByteTopology + diffusion::reference_*). Same workload, same RNG
  // streams; every row verifies bit-identical output before timing. Swept
  // over grid sizes so docs/GRID.md's cost model has measured numbers where
  // the per-row fixed costs matter (small grids), not just the asymptote.
  const int sub_n_max = static_cast<int>(flags.get_int("subgrid", 256));
  const int sub_reps = static_cast<int>(flags.get_int("subreps", 30));
  const int sub_k = 40;
  bool sub_identical = true;

  auto run_substrate = [&](int sub_n) {
    squish::Topology sub0 = stripes(sub_n, 3);
    {
      util::Rng jitter(seed + 9);
      sub0 = diffusion::forward_noise(sub0, schedule, 10, jitter);
    }
    const squish::ByteTopology bsub0(sub0);
    std::printf("== Packed substrate vs byte reference (grid %dx%d) ==\n", sub_n, sub_n);
    util::JsonObject substrate;
    substrate["grid"] = sub_n;

    // forward noising: word-parallel XOR-mask build vs per-cell flip. Both
    // consume one rng.bernoulli per cell in row-major order, so seeding both
    // sides identically must give bit-identical grids.
    {
      util::Rng ra(seed + 21), rb(seed + 21);
      const squish::Topology py = diffusion::forward_noise(sub0, schedule, sub_k, ra);
      const squish::ByteTopology by =
          diffusion::reference_forward_noise(bsub0, schedule, sub_k, rb);
      const bool same = py == by.packed();
      std::size_t guard = 0;
      const double byte_sec = seconds_per_call(sub_reps, [&](int i) {
        util::Rng r(seed + 100 + i);
        guard += diffusion::reference_forward_noise(bsub0, schedule, sub_k, r).popcount();
      });
      const double packed_sec = seconds_per_call(sub_reps, [&](int i) {
        util::Rng r(seed + 100 + i);
        guard += diffusion::forward_noise(sub0, schedule, sub_k, r).popcount();
      });
      substrate["forward_noise"] = substrate_row("forward_noise", byte_sec, packed_sec, same,
                                                 sub_identical);
      sink += static_cast<double>(guard & 1);
    }

    // neighbour gather: the denoisers' 17-offset feature index for every cell.
    // Packed path funnel-shifts one 64-bit plane per offset and transposes the
    // 17 planes into per-lane indices; byte path does 17 mirrored loads/cell.
    {
      util::Rng gather_rng(seed + 2);
      const squish::Topology pxk = diffusion::forward_noise(sub0, schedule, sub_k, gather_rng);
      const squish::ByteTopology bxk(pxk);
      std::vector<int> idx(static_cast<std::size_t>(sub_n));
      bool same = true;
      for (int r = 0; same && r < sub_n; ++r) {
        diffusion::TabularDenoiser::neighborhood_indices_row(pxk, r, idx.data());
        for (int c = 0; same && c < sub_n; ++c) {
          same = idx[static_cast<std::size_t>(c)] ==
                 diffusion::reference_neighborhood_index(bxk, r, c);
        }
      }
      long long guard = 0;
      const double byte_sec = seconds_per_call(sub_reps, [&](int) {
        for (int r = 0; r < sub_n; ++r) {
          for (int c = 0; c < sub_n; ++c) {
            guard += diffusion::reference_neighborhood_index(bxk, r, c);
          }
        }
      });
      const double packed_sec = seconds_per_call(sub_reps, [&](int) {
        for (int r = 0; r < sub_n; ++r) {
          diffusion::TabularDenoiser::neighborhood_indices_row(pxk, r, idx.data());
          guard += idx[0];
        }
      });
      substrate["neighbor_gather"] = substrate_row("neighbor_gather", byte_sec, packed_sec, same,
                                                   sub_identical);
      sink += static_cast<double>(guard & 1);
    }

    // DRC run scan: countr_zero hopping over masked words vs per-cell walk.
    {
      bool same = true;
      for (int r = 0; same && r < sub_n; ++r) {
        same = drc::row_runs(sub0, r, 1) == diffusion::reference_row_runs(bsub0, r, 1);
      }
      std::size_t guard = 0;
      const double byte_sec = seconds_per_call(sub_reps, [&](int) {
        for (int r = 0; r < sub_n; ++r) guard += diffusion::reference_row_runs(bsub0, r, 1).size();
      });
      const double packed_sec = seconds_per_call(sub_reps, [&](int) {
        for (int r = 0; r < sub_n; ++r) guard += drc::row_runs(sub0, r, 1).size();
      });
      substrate["row_runs"] = substrate_row("row_runs", byte_sec, packed_sec, same, sub_identical);
      sink += static_cast<double>(guard & 1);
    }
    std::printf("\n");
    return util::Json(std::move(substrate));
  };

  util::JsonArray substrate_grids;
  for (int g : {64, 128, sub_n_max}) {
    if (g == sub_n_max && (sub_n_max == 64 || sub_n_max == 128)) continue;
    substrate_grids.push_back(run_substrate(g));
  }
  bit_identical = bit_identical && sub_identical;

  // --- BatchSampler scaling: the MLP now fans out; verify bit-identity per
  // thread count and record the speedup curve.
  const diffusion::DiffusionSampler sampler(schedule, d);
  diffusion::SampleConfig sc;
  sc.rows = grid_n;
  sc.cols = grid_n;
  sc.sample_steps = 8;
  sc.polish_rounds = 1;
  const int count = static_cast<int>(flags.get_int("samples", 8));
  const util::Rng root(seed + 7000);

  std::printf("%8s | %9s | %8s | %s\n", "threads", "seconds", "speedup", "batch hash");
  std::printf("%s\n", std::string(48, '-').c_str());
  util::JsonArray rows;
  double base_sec = 0.0;
  std::uint64_t base_hash = 0;
  bool deterministic = true;
  for (const bench::ScalingRun& run :
       bench::time_thread_counts(max_threads, [&](util::ThreadPool* pool) {
         return diffusion::BatchSampler(sampler, pool).sample_batch(sc, count, root);
       })) {
    const int threads = run.threads;
    const double sec = run.seconds;
    const std::uint64_t h = batch_hash(run.batch);
    if (threads == 1) {
      base_sec = sec;
      base_hash = h;
    }
    deterministic = deterministic && h == base_hash;
    // A row asking for more workers than the machine has cores measures
    // oversubscription, not scaling — record that honestly instead of
    // letting a flat speedup_vs_1 read as a parallelization failure.
    const int hw = util::ThreadPool::hardware_threads();
    const bool starved = hw > 0 && hw < threads;
    std::printf("%8d | %9.3f | %7.2fx | %016llx%s%s\n", threads, sec, base_sec / sec,
                static_cast<unsigned long long>(h), h == base_hash ? "" : "  << MISMATCH",
                starved ? "  (thread-starved)" : "");
    util::JsonObject row;
    row["threads"] = threads;
    row["hardware_threads"] = hw;
    row["thread_starved"] = starved;
    row["seconds"] = sec;
    row["seconds_min"] = run.seconds_min;
    row["seconds_max"] = run.seconds_max;
    row["speedup_vs_1"] = base_sec / sec;
    row["bit_identical_to_1_thread"] = h == base_hash;
    rows.push_back(util::Json(std::move(row)));
  }

  util::JsonObject single;
  single["grid_new_ms"] = grid_new * 1e3;
  single["pixel_new_us"] = pixel_new * 1e6;
  // Vector tiers, all relative to the portable 8-wide baseline (grid_new_ms).
  single["avx2_available"] = have_avx2;
  single["grid_fp32_vec_ms"] = grid_vec * 1e3;
  single["grid_fp32_vec_speedup"] = grid_new / grid_vec;
  single["fp32_vec_bit_identical"] = vec_identical;
  single["grid_int8_ms"] = grid_int8 * 1e3;
  single["grid_int8_speedup"] = grid_new / grid_int8;
  single["int8_grid_max_abs_diff"] = int8_maxdiff;
  single["pixel_fp32_vec_us"] = pixel_vec * 1e6;
  single["pixel_int8_us"] = pixel_int8 * 1e6;
  single["row_fp32_us_per_px"] = row_fp32 * 1e6;
  single["row_int8_us_per_px"] = row_int8 * 1e6;
  single["row_query_bit_identical"] = row_identical;

  util::JsonObject report;
  report["bench"] = "denoiser_inference";
  report["workload"] = "MLP denoiser, 23->64->64->1, SiLU, grid forward + pixel query";
  report["grid"] = grid_n;
  report["seed"] = static_cast<long long>(seed);
  report["hardware_threads"] = util::ThreadPool::hardware_threads();
  report["single_thread"] = util::Json(std::move(single));
  report["packed_substrate"] = util::Json(std::move(substrate_grids));
  report["packed_substrate_all_bit_identical"] = sub_identical;
  report["batch_samples"] = count;
  report["batch_repeats"] = bench::kScalingRepeats;
  report["batch_deterministic_across_thread_counts"] = deterministic;
  report["batch_rows"] = util::Json(std::move(rows));
  std::ofstream out = bench::open_output(json_path);
  out << util::Json(std::move(report)).dump(2) << "\n";
  std::printf("\nreport: %s   (checksum %.6f)\n", json_path.c_str(), sink);

  if (!manifest_path.empty()) {
    obs::RunManifest manifest;
    manifest.tool = "denoiser_inference";
    for (int i = 1; i < argc; ++i) manifest.args.push_back(argv[i]);
    manifest.metrics["grid_fp32_vec_speedup"] = grid_new / grid_vec;
    manifest.metrics["grid_int8_speedup"] = grid_new / grid_int8;
    std::string error;
    if (!manifest.write(manifest_path, obs::Registry::global(), &error)) {
      std::fprintf(stderr, "error: manifest: %s\n", error.c_str());
      return 2;
    }
    std::printf("[manifest] wrote %s\n", manifest_path.c_str());
  }
  return (bit_identical && deterministic) ? 0 : 1;
}
