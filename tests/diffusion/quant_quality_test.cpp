// Quality gate for int8 quantized inference (DESIGN.md "Quantized
// inference"): sampling through the quantized kernels is allowed to change
// bits — it is NOT allowed to change the statistics the paper reports. For a
// fixed seed set we draw a library with a trained fp32 MLP denoiser and one
// with its int8 twin (same weights, MlpConfig::quantized), then hold the
// same summary-metric deltas the few-step harness enforces
// (fast_quality_test.cpp): mean density, mean scan-line complexity
// (c_x + c_y) and library diversity (Definition 2), plus absolute density
// sanity so a collapsed pair of libraries cannot sneak through on deltas
// alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "diffusion/mlp_denoiser.h"
#include "diffusion/sampler.h"
#include "diffusion/trainer.h"
#include "metrics/metrics.h"
#include "nn/serialize.h"

namespace cp::diffusion {
namespace {

constexpr int kPatterns = 6;    // library size per tier
constexpr int kFastSteps = 50;  // same visited-step budget as fast_quality
// Thresholds shared with fast_quality_test.cpp: ~2x the sampler's own
// seed-to-seed noise on this fixture.
constexpr double kDensityTol = 0.12;
constexpr double kComplexityTol = 10.0;
constexpr double kDiversityTol = 1.6;

squish::Topology stripes(int n, int period) {
  squish::Topology t(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) t.set(r, c, (c / period) % 2);
  }
  return t;
}

struct LibraryStats {
  double density = 0.0;
  double complexity = 0.0;
  double diversity = 0.0;
};

LibraryStats stats_of(const std::vector<squish::Topology>& lib) {
  LibraryStats s;
  for (const auto& t : lib) {
    const auto [cx, cy] = t.complexity();
    s.density += t.density();
    s.complexity += cx + cy;
  }
  s.density /= static_cast<double>(lib.size());
  s.complexity /= static_cast<double>(lib.size());
  s.diversity = metrics::diversity(lib);
  return s;
}

class QuantQualityTest : public ::testing::Test {
 protected:
  QuantQualityTest()
      : schedule_(ScheduleConfig{}),
        denoiser_(make_trained(schedule_)),
        quantized_(twin(schedule_, denoiser_, /*quantized=*/true)) {}

  static MlpDenoiser make_trained(const NoiseSchedule& schedule) {
    util::Rng rng(5);
    MlpDenoiser model(schedule, MlpConfig{1, 32, 2}, rng);
    std::vector<std::vector<squish::Topology>> per_class(1);
    for (int p = 2; p <= 4; ++p) per_class[0].push_back(stripes(32, p));
    TrainConfig cfg;
    cfg.iterations = 800;
    cfg.seed = 7;
    train_mlp(model, per_class, cfg);
    return model;
  }

  /// A model carrying `trained`'s weights. The int8 tier is a model
  /// property, so the int8 side of every comparison is a quantized twin.
  static MlpDenoiser twin(const NoiseSchedule& schedule, MlpDenoiser& trained, bool quantized) {
    util::Rng rng(5);
    MlpDenoiser copy(schedule, MlpConfig{1, 32, 2, quantized}, rng);
    std::stringstream weights;
    nn::save_params(weights, trained.net().params());
    nn::load_params(weights, copy.net().params());
    return copy;
  }

  static SampleConfig sample_config() {
    SampleConfig cfg;
    cfg.rows = 32;
    cfg.cols = 32;
    cfg.sample_steps = kFastSteps;
    cfg.polish_rounds = 1;
    return cfg;
  }

  std::vector<squish::Topology> draw_library(const Denoiser& denoiser) const {
    const DiffusionSampler sampler(schedule_, denoiser);
    std::vector<squish::Topology> lib;
    for (int i = 0; i < kPatterns; ++i) {
      util::Rng rng(100 + static_cast<std::uint64_t>(i));  // fixed seed set
      lib.push_back(sampler.sample(sample_config(), rng));
    }
    return lib;
  }

  NoiseSchedule schedule_;
  MlpDenoiser denoiser_;
  MlpDenoiser quantized_;
};

TEST_F(QuantQualityTest, Int8SamplingMatchesFp32Statistics) {
  const LibraryStats fp32 = stats_of(draw_library(denoiser_));
  const LibraryStats int8 = stats_of(draw_library(quantized_));

  std::ostringstream table;
  table << "\n  tier    density  complexity  diversity\n";
  table << "  fp32    " << fp32.density << "  " << fp32.complexity << "  " << fp32.diversity
        << "\n";
  table << "  int8    " << int8.density << "  " << int8.complexity << "  " << int8.diversity
        << "\n";

  EXPECT_LE(std::abs(int8.density - fp32.density), kDensityTol) << "density" << table.str();
  EXPECT_LE(std::abs(int8.complexity - fp32.complexity), kComplexityTol)
      << "complexity" << table.str();
  EXPECT_LE(std::abs(int8.diversity - fp32.diversity), kDiversityTol)
      << "diversity" << table.str();
  for (const LibraryStats* s : {&fp32, &int8}) {
    EXPECT_GT(s->density, 0.2) << table.str();
    EXPECT_LT(s->density, 0.8) << table.str();
  }
}

TEST_F(QuantQualityTest, Int8SamplingIsDeterministic) {
  // Bit-determinism within the tier: the int8 kernels are exact integer
  // arithmetic plus identically-rounded epilogues, so the same seed must
  // reproduce the same topology, run to run.
  const DiffusionSampler sampler(schedule_, quantized_);
  util::Rng a(42), b(42);
  EXPECT_TRUE(sampler.sample(sample_config(), a) == sampler.sample(sample_config(), b));
}

TEST_F(QuantQualityTest, Int8TwinPredictsThroughTheQuantizedTier) {
  // The twin carries the trained weights bit for bit, so any difference in
  // its predictions comes from the int8 kernels, not from the parameters.
  const squish::Topology xk = stripes(24, 3);
  ProbGrid p_fp32, p_int8;
  denoiser_.predict_x0(xk, 40, 0, p_fp32);
  quantized_.predict_x0(xk, 40, 0, p_int8);
  ASSERT_EQ(p_fp32.size(), p_int8.size());
  bool differs = false;
  double max_diff = 0.0;
  for (std::size_t i = 0; i < p_fp32.size(); ++i) {
    differs = differs || p_fp32[i] != p_int8[i];
    max_diff = std::max(max_diff, std::abs(static_cast<double>(p_fp32[i]) - p_int8[i]));
  }
  EXPECT_TRUE(differs);
  EXPECT_LT(max_diff, 0.1);  // the coarse sanity bound of bench/denoiser_inference

  // A twin built without the flag predicts exactly like the trained model.
  ProbGrid p_twin;
  twin(schedule_, denoiser_, /*quantized=*/false).predict_x0(xk, 40, 0, p_twin);
  EXPECT_TRUE(p_twin == p_fp32);
}

}  // namespace
}  // namespace cp::diffusion
