// Ablation: design choices of the CPU sampling stack (DESIGN.md section 4 /
// substitution S2). Compares, at 128^2:
//   - cascade (coarse-to-fine) vs single-resolution sampling
//   - the cascade's MAP polish on vs off
//   - mean-matching guidance on vs off
// Reported: legality, diversity, density gap to data, seconds per sample.
//
// A second section benches the few-step engine: the full K-step reverse
// chain against the noise-uniform placement and a greedily searched
// schedule, at a <= K/20 visited-step budget, and writes the
// speedup/equivalence report to BENCH_fast_sampling.json (override with
// --fast_json FILE).

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench/common.h"
#include "core/selection.h"
#include "diffusion/batch_sampler.h"
#include "diffusion/timestep_schedule.h"
#include "metrics/metrics.h"
#include "util/json.h"
#include "util/thread_pool.h"

using namespace cp;

namespace {

struct Row {
  const char* name;
  double legality_pct;
  double diversity;
  double density;
  double sec_per_sample;
};

Row run_config(const bench::Env& env, const char* name,
               const diffusion::TopologyGenerator& gen, int style, long long n,
               std::uint64_t seed, util::ThreadPool* pool) {
  diffusion::SampleConfig sc;
  sc.condition = style;
  sc.sample_steps = 16;  // the CPU default; 0 would run the full K-step chain
  const diffusion::BatchSampler batch(gen, pool);
  const auto t0 = std::chrono::steady_clock::now();
  // One fork(i) stream per sample of a row-owned root: the row is
  // reproducible from its seed alone, identical for any --threads value,
  // and independent of the rows before it.
  const std::vector<squish::Topology> topos =
      batch.sample_batch(sc, static_cast<int>(n), util::Rng(seed));
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() /
      static_cast<double>(n);
  std::vector<squish::Topology> legal;
  double density = 0.0;
  const geometry::Coord phys = bench::physical_for(env, 128);
  for (const auto& t : topos) {
    density += t.density();
    const auto res = env.legalizer(style).legalize(t, phys, phys);
    if (res.ok()) legal.push_back(t);
  }
  return Row{name, 100.0 * static_cast<double>(legal.size()) / static_cast<double>(n),
             metrics::diversity(legal), density / static_cast<double>(n), sec};
}

// Few-step engine study. Grid size, polish rounds and equivalence
// thresholds deliberately match tests/diffusion/fast_quality_test.cpp, so
// the bench reports against the same statistical-equivalence contract the
// test suite enforces — just with a real-data denoiser and a larger
// library.
constexpr int kFastGrid = 32;
constexpr double kFastDensityTol = 0.12;
constexpr double kFastComplexityTol = 10.0;  // mean (c_x + c_y)
constexpr double kFastDiversityTol = 1.6;    // nats

struct FastRow {
  std::string name;
  int visited = 0;  // reverse transitions = denoiser sweeps per sample
  double sec_per_sample = 0.0;
  double samples_per_sec = 0.0;
  double speedup = 1.0;  // vs the full-chain row
  double legality_pct = 0.0;
  double density = 0.0;
  double complexity = 0.0;  // mean c_x + c_y
  double diversity = 0.0;
};

FastRow run_fast(const bench::Env& env, const std::string& name,
                 const diffusion::DiffusionSampler& sampler, diffusion::ScheduleKind kind,
                 int steps, long long n) {
  diffusion::SampleConfig sc;
  sc.rows = sc.cols = kFastGrid;
  sc.condition = 0;
  sc.sample_steps = steps;
  sc.schedule_kind = kind;
  sc.polish_rounds = 1;
  std::vector<squish::Topology> lib;
  lib.reserve(static_cast<std::size_t>(n));
  const auto t0 = std::chrono::steady_clock::now();
  for (long long i = 0; i < n; ++i) {
    // The same fixed seed set for every mode: the comparison is paired.
    util::Rng rng(env.seed + 9000 + static_cast<std::uint64_t>(i));
    lib.push_back(sampler.sample(sc, rng));
  }
  FastRow r;
  r.sec_per_sample =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() /
      static_cast<double>(n);
  r.samples_per_sec = r.sec_per_sample > 0 ? 1.0 / r.sec_per_sample : 0.0;
  r.name = name;
  r.visited = static_cast<int>(sampler.make_timesteps(steps, kind).size()) - 1;
  const geometry::Coord phys = bench::physical_for(env, kFastGrid);
  int legal = 0;
  for (const auto& t : lib) {
    r.density += t.density();
    const auto [cx, cy] = t.complexity();
    r.complexity += cx + cy;
    if (env.legalizer(0).legalize(t, phys, phys).ok()) ++legal;
  }
  r.density /= static_cast<double>(n);
  r.complexity /= static_cast<double>(n);
  r.legality_pct = 100.0 * static_cast<double>(legal) / static_cast<double>(n);
  r.diversity = metrics::diversity(lib);
  return r;
}

util::Json fast_row_json(const FastRow& r) {
  util::Json j;
  j["mode"] = r.name;
  j["visited_steps"] = static_cast<long long>(r.visited);
  j["sec_per_sample"] = r.sec_per_sample;
  j["samples_per_sec"] = r.samples_per_sec;
  j["speedup_vs_full"] = r.speedup;
  j["legality_pct"] = r.legality_pct;
  j["density"] = r.density;
  j["complexity"] = r.complexity;
  j["diversity"] = r.diversity;
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Env env = bench::make_env(argc, argv, /*default_samples=*/24);
  const long long n = env.samples;
  // Every row samples from the same fixed seed, like the few-step section
  // below: the comparison is paired, and adding or removing a row moves no
  // other row.
  const std::uint64_t row_seed = env.seed + 6000;
  util::CliFlags flags(argc, argv);
  // --threads N fans each row's batch across a pool (output unchanged).
  const int threads = static_cast<int>(flags.get_int("threads", 1));
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);

  // Rebuild the denoisers so single-resolution variants can be constructed.
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

  std::printf("\n== Sampler ablation (128^2, %lld samples per row, style Layer-10001) ==\n\n",
              n);
  std::printf("%-34s | %8s | %7s | %7s | %8s\n", "Configuration", "Legality", "Divers.",
              "Density", "s/sample");
  std::printf("%s\n", std::string(78, '-').c_str());

  const double data_density = [&] {
    double d = 0;
    for (const auto& t : fine_data[0]) d += t.density();
    return d / static_cast<double>(fine_data[0].size());
  }();

  std::vector<Row> rows;
  {
    diffusion::CascadeSampler cascade(env.chat->schedule(), coarse, fine,
                                      diffusion::CascadeConfig{});
    rows.push_back(run_config(env, "cascade (default)", cascade, 0, n, row_seed, pool.get()));
  }
  {
    diffusion::CascadeConfig cc;
    cc.polish_rounds = 0;
    diffusion::CascadeSampler cascade(env.chat->schedule(), coarse, fine, cc);
    rows.push_back(run_config(env, "cascade, no MAP polish", cascade, 0, n, row_seed, pool.get()));
  }
  {
    diffusion::DiffusionSampler flat(env.chat->schedule(), fine);
    rows.push_back(run_config(env, "single-res sequential", flat, 0, n, row_seed, pool.get()));
  }
  {
    diffusion::DiffusionSampler flat(env.chat->schedule(), fine);
    flat.set_guidance(false);
    rows.push_back(run_config(env, "single-res, no guidance", flat, 0, n, row_seed, pool.get()));
  }

  // Topology selection (the step the paper removes for fair comparison):
  // cost of pushing legality to 100% with the default cascade.
  {
    diffusion::CascadeSampler cascade(env.chat->schedule(), coarse, fine,
                                      diffusion::CascadeConfig{});
    diffusion::SampleConfig sc;
    sc.sample_steps = 16;
    util::Rng selection_rng(row_seed);
    const auto t0 = std::chrono::steady_clock::now();
    const core::SelectionResult sel = core::select_legal(
        cascade, env.legalizer(0), sc, bench::physical_for(env, 128),
        bench::physical_for(env, 128), static_cast<int>(n), selection_rng);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() /
        static_cast<double>(n);
    std::vector<squish::Topology> topos;
    for (const auto& p : sel.patterns) topos.push_back(p.topology);
    double dens = 0;
    for (const auto& t : topos) dens += t.density();
    rows.push_back(Row{"cascade + topology selection", 100.0, metrics::diversity(topos),
                       topos.empty() ? 0.0 : dens / static_cast<double>(topos.size()), sec});
    std::printf("(selection used %lld attempts for %lld kept patterns)\n", sel.attempts, n);
  }

  util::JsonArray manifest_rows;
  for (const Row& r : rows) {
    std::printf("%-34s | %7.2f%% | %7.3f | %7.3f | %8.3f\n", r.name, r.legality_pct,
                r.diversity, r.density, r.sec_per_sample);
    bench::csv_row(env, util::format("ablation_sampler,%s,%.4f,%.4f,%.4f,%.5f", r.name,
                                     r.legality_pct, r.diversity, r.density, r.sec_per_sample));
    util::JsonObject mr;
    mr["configuration"] = r.name;
    mr["legality_pct"] = r.legality_pct;
    mr["diversity"] = r.diversity;
    mr["density"] = r.density;
    mr["sec_per_sample"] = r.sec_per_sample;
    manifest_rows.push_back(util::Json(std::move(mr)));
  }
  env.manifest.metrics["rows"] = util::Json(std::move(manifest_rows));
  std::printf("\n(data density for reference: %.3f)\n", data_density);
  std::printf(
      "Expected: the cascade variants dominate single-resolution sampling on legality;\n"
      "removing guidance collapses density toward the empty pattern; skipping the MAP\n"
      "polish locks complexity to the coarse grid (diversity collapses).\n");

  // == Few-step engine: full chain vs visited-subset placements ==
  // Single-resolution sampler, where the per-request budget and placement
  // are honored exactly (the cascade pins its own tuned budgets).
  {
    // Interior-level budget, well under the K/20 sweep criterion; 24
    // matches the cascade's default coarse budget.
    const int budget = 24;
    diffusion::DiffusionSampler flat(env.chat->schedule(), fine);
    // Register a searched list so the kSearched row benches its real path
    // instead of the noise-uniform fallback. Held-out probes are small
    // windows of the training clips — the search is a setup cost, not part
    // of the per-sample timing.
    {
      std::vector<std::vector<squish::Topology>> held_out(2);
      for (int s = 0; s < 2; ++s) {
        for (std::size_t i = 0; i < fine_data[static_cast<std::size_t>(s)].size() && i < 2; ++i) {
          held_out[static_cast<std::size_t>(s)].push_back(
              fine_data[static_cast<std::size_t>(s)][i].window(0, 0, kFastGrid, kFastGrid));
        }
      }
      diffusion::SearchConfig scfg;
      scfg.budget = budget;
      scfg.candidate_pool = 96;
      scfg.max_per_class = 1;
      scfg.probes = 1;
      flat.set_searched_timesteps(
          diffusion::search_timesteps(env.chat->schedule(), fine, held_out, scfg).timesteps);
    }

    const FastRow full = run_fast(env, "full-chain", flat,
                                  diffusion::ScheduleKind::kNoiseUniform, /*steps=*/0, n);
    std::vector<FastRow> fast_rows;
    for (diffusion::ScheduleKind kind :
         {diffusion::ScheduleKind::kNoiseUniform, diffusion::ScheduleKind::kSearched}) {
      FastRow r = run_fast(env, std::string("fast-") + diffusion::to_string(kind), flat, kind,
                           budget, n);
      r.speedup = r.sec_per_sample > 0 ? full.sec_per_sample / r.sec_per_sample : 0.0;
      fast_rows.push_back(std::move(r));
    }

    std::printf("\n== Few-step sampling (%d^2, %lld samples per mode, budget %d) ==\n\n",
                kFastGrid, n, budget);
    std::printf("%-22s | %7s | %8s | %7s | %7s | %7s | %7s | %8s\n", "Mode", "Visited",
                "s/sample", "Speedup", "Density", "Cmplx", "Divers.", "Legality");
    std::printf("%s\n", std::string(94, '-').c_str());
    const auto print_fast = [&](const FastRow& r) {
      std::printf("%-22s | %7d | %8.4f | %6.1fx | %7.3f | %7.2f | %7.3f | %7.2f%%\n",
                  r.name.c_str(), r.visited, r.sec_per_sample, r.speedup, r.density,
                  r.complexity, r.diversity, r.legality_pct);
      bench::csv_row(env, util::format("ablation_sampler_fast,%s,%d,%.5f,%.2f,%.4f,%.3f,%.4f",
                                       r.name.c_str(), r.visited, r.sec_per_sample, r.speedup,
                                       r.density, r.complexity, r.diversity));
    };
    print_fast(full);
    double min_speedup = 0.0;
    bool all_within = true;
    util::JsonArray mode_json;
    for (const FastRow& r : fast_rows) {
      print_fast(r);
      const double dd = std::abs(r.density - full.density);
      const double dc = std::abs(r.complexity - full.complexity);
      const double dv = std::abs(r.diversity - full.diversity);
      const bool within =
          dd <= kFastDensityTol && dc <= kFastComplexityTol && dv <= kFastDiversityTol;
      all_within = all_within && within;
      min_speedup = min_speedup == 0.0 ? r.speedup : std::min(min_speedup, r.speedup);
      util::Json j = fast_row_json(r);
      j["delta_density"] = dd;
      j["delta_complexity"] = dc;
      j["delta_diversity"] = dv;
      j["within_thresholds"] = within;
      mode_json.push_back(std::move(j));
    }
    std::printf("\nmin fast-mode speedup: %.1fx (target >= 10x); all modes within the\n"
                "fast_quality_test equivalence thresholds: %s\n",
                min_speedup, all_within ? "yes" : "NO");

    util::Json report;
    report["bench"] = std::string("ablation_sampler/fast_sampling");
    report["grid"] = static_cast<long long>(kFastGrid);
    report["samples_per_mode"] = n;
    report["seed"] = static_cast<long long>(env.seed);
    report["chain_steps"] = static_cast<long long>(env.chat->schedule().steps());
    report["budget"] = static_cast<long long>(budget);
    util::Json thresholds;
    thresholds["density"] = kFastDensityTol;
    thresholds["complexity"] = kFastComplexityTol;
    thresholds["diversity"] = kFastDiversityTol;
    report["thresholds"] = std::move(thresholds);
    report["full_chain"] = fast_row_json(full);
    report["modes"] = util::Json(std::move(mode_json));
    report["min_speedup"] = min_speedup;
    report["target_speedup"] = 10.0;
    report["meets_target"] = min_speedup >= 10.0 && all_within;
    const std::string fast_json_path =
        bench::out_path(env, flags.get("fast_json", "BENCH_fast_sampling.json"));
    std::ofstream out = bench::open_output(fast_json_path);
    out << report.dump(2) << "\n";
    std::printf("[bench] wrote %s\n", fast_json_path.c_str());
    env.manifest.metrics["fast_min_speedup"] = min_speedup;
    env.manifest.metrics["fast_within_thresholds"] = all_within;
  }

  bench::write_manifest(env);
  return 0;
}
