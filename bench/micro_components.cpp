// Micro-benchmarks (google-benchmark) for the substrate components:
// squish/unsquish, normalisation, DRC checking, legalization, diffusion
// reverse steps and full 128^2 sampling. Engineering numbers, not part of
// the paper's tables.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dataset/builder.h"
#include "diffusion/cascade.h"
#include "diffusion/trainer.h"
#include "legalize/legalizer.h"
#include "nn/gemm.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "squish/normalize.h"
#include "util/fault.h"

namespace {

using namespace cp;

struct Fixture {
  dataset::Dataset dataset;
  std::vector<geometry::Rect> map;
  diffusion::NoiseSchedule schedule{diffusion::ScheduleConfig{}};
  std::unique_ptr<diffusion::TabularDenoiser> fine;
  std::unique_ptr<diffusion::TabularDenoiser> coarse;
  std::unique_ptr<diffusion::CascadeSampler> sampler;
  legalize::Legalizer legalizer{drc::rules_for_style("Layer-10001")};

  Fixture() {
    dataset::DatasetConfig dc;
    dc.style = 0;
    dc.count = 64;
    dc.seed = 5;
    dataset = dataset::build_dataset(dc);
    util::Rng rng(7);
    map = dataset::generate_map(dataset::style_params(0), 8192, rng);

    diffusion::TabularConfig tc;
    tc.conditions = 1;
    tc.draws_per_bucket = 2;
    std::vector<squish::Topology> coarse_data;
    for (const auto& t : dataset.topologies) {
      coarse_data.push_back(squish::downsample_majority(t, 4));
    }
    fine = std::make_unique<diffusion::TabularDenoiser>(
        diffusion::fit_tabular(schedule, tc, {dataset.topologies}, 9));
    coarse = std::make_unique<diffusion::TabularDenoiser>(
        diffusion::fit_tabular(schedule, tc, {coarse_data}, 10));
    sampler = std::make_unique<diffusion::CascadeSampler>(schedule, *coarse, *fine,
                                                          diffusion::CascadeConfig{});
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Squish2048Window(benchmark::State& state) {
  Fixture& f = fixture();
  const geometry::Rect window{512, 512, 2560, 2560};
  for (auto _ : state) {
    benchmark::DoNotOptimize(squish::squish(f.map, window));
  }
}
BENCHMARK(BM_Squish2048Window);

void BM_Unsquish(benchmark::State& state) {
  Fixture& f = fixture();
  const auto pattern = squish::squish(f.map, geometry::Rect{512, 512, 2560, 2560});
  for (auto _ : state) {
    benchmark::DoNotOptimize(squish::unsquish(pattern));
  }
}
BENCHMARK(BM_Unsquish);

void BM_NormalizeTo128(benchmark::State& state) {
  Fixture& f = fixture();
  const auto pattern = squish::squish(f.map, geometry::Rect{512, 512, 2560, 2560});
  for (auto _ : state) {
    benchmark::DoNotOptimize(squish::normalize_to(pattern, 128));
  }
}
BENCHMARK(BM_NormalizeTo128);

void BM_DrcCheck128(benchmark::State& state) {
  Fixture& f = fixture();
  const auto res = f.legalizer.legalize(f.dataset.topologies[0], 2048, 2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drc::check(*res.pattern, f.legalizer.rules()));
  }
}
BENCHMARK(BM_DrcCheck128);

void BM_Legalize128(benchmark::State& state) {
  Fixture& f = fixture();
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.legalizer.legalize(f.dataset.topologies[i++ % f.dataset.topologies.size()], 2048,
                             2048));
  }
}
BENCHMARK(BM_Legalize128);

void BM_RequiredWidthDiagnostic(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.legalizer.required_width_nm(f.dataset.topologies[0]));
  }
}
BENCHMARK(BM_RequiredWidthDiagnostic);

void BM_TabularPredict128(benchmark::State& state) {
  Fixture& f = fixture();
  util::Rng rng(3);
  const auto xk = diffusion::forward_noise(f.dataset.topologies[0], f.schedule, 30, rng);
  diffusion::ProbGrid p0;
  for (auto _ : state) {
    f.fine->predict_x0(xk, 30, 0, p0);
    benchmark::DoNotOptimize(p0);
  }
}
BENCHMARK(BM_TabularPredict128);

void BM_ReverseStepSequential128(benchmark::State& state) {
  Fixture& f = fixture();
  diffusion::DiffusionSampler s(f.schedule, *f.fine);
  util::Rng rng(4);
  const auto xk = diffusion::forward_noise(f.dataset.topologies[0], f.schedule, 30, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.reverse_step(xk, 30, 25, 0, rng));
  }
}
BENCHMARK(BM_ReverseStepSequential128);

void BM_CascadeSample128(benchmark::State& state) {
  Fixture& f = fixture();
  util::Rng rng(5);
  diffusion::SampleConfig sc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.sampler->sample(sc, rng));
  }
}
BENCHMARK(BM_CascadeSample128);

// One fine-stage MAP sweep of the cascade (CascadeConfig::polish_k) over an
// upsampled coarse pattern, the input the fine stage sees.
void BM_MapPolish128(benchmark::State& state) {
  Fixture& f = fixture();
  diffusion::DiffusionSampler s(f.schedule, *f.fine);
  const auto up = squish::upsample_nearest(
      squish::downsample_majority(f.dataset.topologies[0], 4), 4);
  const int polish_k = diffusion::CascadeConfig{}.polish_k;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.map_polish(up, polish_k, 0));
  }
}
BENCHMARK(BM_MapPolish128);

void BM_ForwardNoise128(benchmark::State& state) {
  Fixture& f = fixture();
  util::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        diffusion::forward_noise(f.dataset.topologies[0], f.schedule, 500, rng));
  }
}
BENCHMARK(BM_ForwardNoise128);

void BM_ComplexityMetric(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.dataset.topologies[0].complexity());
  }
}
BENCHMARK(BM_ComplexityMetric);

// ---- fault-injection overhead (docs/ROBUSTNESS.md) ------------------------
// Disarmed fault points sit on hot paths (denoiser/infer, legalize/run);
// their cost must stay one relaxed atomic load.

void BM_FaultPointDisarmed(benchmark::State& state) {
  util::fault::clear();
  for (auto _ : state) {
    util::fault::point("bench/disarmed");
  }
}
BENCHMARK(BM_FaultPointDisarmed);

void BM_FaultPointArmedOtherName(benchmark::State& state) {
  // Worst realistic case: some schedule is armed, so every point pays the
  // registry lookup even though its own name never fires.
  util::fault::configure("bench/other=every:1000000000");
  for (auto _ : state) {
    util::fault::point("bench/armed_miss");
  }
  util::fault::clear();
}
BENCHMARK(BM_FaultPointArmedOtherName);

// ---- nn/gemm kernels (the MLP denoiser's hidden-layer shape) --------------

struct GemmFixture {
  static constexpr int kN = 4096, kIn = 64, kOut = 64;
  std::vector<float> x, w, wt, b, y;
  GemmFixture()
      : x(static_cast<std::size_t>(kN) * kIn),
        w(static_cast<std::size_t>(kOut) * kIn),
        wt(w.size()),
        b(kOut),
        y(static_cast<std::size_t>(kN) * kOut) {
    util::Rng rng(8);
    for (auto& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : w) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
  }
};

GemmFixture& gemm_fixture() {
  static GemmFixture f;
  return f;
}

void BM_GemmNaive4096x64x64(benchmark::State& state) {
  GemmFixture& f = gemm_fixture();
  for (auto _ : state) {
    nn::gemm::forward_naive(GemmFixture::kN, GemmFixture::kIn, GemmFixture::kOut, f.x.data(),
                            f.w.data(), f.b.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
}
BENCHMARK(BM_GemmNaive4096x64x64);

void BM_GemmPacked4096x64x64(benchmark::State& state) {
  GemmFixture& f = gemm_fixture();
  nn::gemm::pack_wt(GemmFixture::kIn, GemmFixture::kOut, f.w.data(), f.wt.data());
  for (auto _ : state) {
    nn::gemm::forward_packed(GemmFixture::kN, GemmFixture::kIn, GemmFixture::kOut, f.x.data(),
                             f.wt.data(), f.b.data(), f.y.data());
    benchmark::DoNotOptimize(f.y.data());
  }
}
BENCHMARK(BM_GemmPacked4096x64x64);

// ---- MLP denoiser inference (stateless infer path, warm workspace) --------

struct MlpFixture {
  diffusion::NoiseSchedule schedule{diffusion::ScheduleConfig{}};
  std::unique_ptr<diffusion::MlpDenoiser> denoiser;
  squish::Topology xk{1, 1};
  MlpFixture() {
    util::Rng rng(9);
    denoiser =
        std::make_unique<diffusion::MlpDenoiser>(schedule, diffusion::MlpConfig{2, 64, 2}, rng);
    squish::Topology x0(64, 64);
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) x0.set(r, c, (c / 3) % 2);
    }
    util::Rng noise(10);
    xk = diffusion::forward_noise(x0, schedule, 40, noise);
  }
};

MlpFixture& mlp_fixture() {
  static MlpFixture f;
  return f;
}

void BM_MlpPredictX0Grid64(benchmark::State& state) {
  MlpFixture& f = mlp_fixture();
  diffusion::ProbGrid p0;
  for (auto _ : state) {
    f.denoiser->predict_x0(f.xk, 40, 0, p0);
    benchmark::DoNotOptimize(p0);
  }
}
BENCHMARK(BM_MlpPredictX0Grid64);

void BM_MlpPredictX0Pixel(benchmark::State& state) {
  MlpFixture& f = mlp_fixture();
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.denoiser->predict_x0_pixel(f.xk, i % 64, (i / 64) % 64, 40, 0));
    ++i;
  }
}
BENCHMARK(BM_MlpPredictX0Pixel);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags it
// does not know, so the shared --manifest/--outdir options are stripped from
// argv before benchmark::Initialize sees them. With --manifest the global
// observability registry is enabled for the run and a JSON run manifest
// (instrumented spans/counters from the exercised components) is written on
// exit — see docs/OBSERVABILITY.md.
int main(int argc, char** argv) {
  std::string manifest_path;
  std::string outdir;
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    auto take_value = [&](const char* flag, std::string* out) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 < argc) *out = argv[++i];
      return true;
    };
    if (take_value("--manifest", &manifest_path) || take_value("--outdir", &outdir)) continue;
    bench_argv.push_back(argv[i]);
  }
  if (!manifest_path.empty()) cp::obs::Registry::global().set_enabled(true);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!manifest_path.empty()) {
    if (!outdir.empty() && outdir != "." && manifest_path.front() != '/') {
      manifest_path = outdir + "/" + manifest_path;
    }
    cp::obs::RunManifest manifest;
    manifest.tool = "micro_components";
    for (int i = 1; i < argc; ++i) manifest.args.push_back(argv[i]);
    std::string error;
    if (!manifest.write(manifest_path, cp::obs::Registry::global(), &error)) {
      std::fprintf(stderr, "error: manifest: %s\n", error.c_str());
      return 2;
    }
    std::printf("[manifest] wrote %s\n", manifest_path.c_str());
  }
  return 0;
}
