#include "diffusion/sampler.h"

#include <gtest/gtest.h>

#include "diffusion/tabular_denoiser.h"

namespace cp::diffusion {
namespace {

squish::Topology stripes(int n, int period) {
  squish::Topology t(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) t.set(r, c, (c / period) % 2);
  }
  return t;
}

class SamplerTest : public ::testing::Test {
 protected:
  SamplerTest() : schedule_(ScheduleConfig{}), denoiser_(make_denoiser()) {}

  TabularDenoiser make_denoiser() {
    TabularConfig cfg;
    cfg.conditions = 1;
    cfg.draws_per_bucket = 3;
    TabularDenoiser d(schedule_, cfg);
    util::Rng rng(1);
    std::vector<squish::Topology> data;
    for (int p = 2; p <= 4; ++p) data.push_back(stripes(32, p));
    d.fit(data, 0, rng);
    return d;
  }

  NoiseSchedule schedule_;
  TabularDenoiser denoiser_;
};

TEST_F(SamplerTest, TimestepsDescendToZero) {
  DiffusionSampler s(schedule_, denoiser_);
  for (int count : {4, 8, 16, 64}) {
    const auto steps = s.make_timesteps(count);
    ASSERT_GE(steps.size(), 3u);
    EXPECT_EQ(steps.front(), schedule_.steps());
    EXPECT_EQ(steps.back(), 0);
    EXPECT_EQ(steps[steps.size() - 2], 1);
    for (std::size_t i = 1; i < steps.size(); ++i) EXPECT_LT(steps[i], steps[i - 1]);
  }
}

TEST_F(SamplerTest, TimestepsFullChainWhenZero) {
  DiffusionSampler s(schedule_, denoiser_);
  const auto steps = s.make_timesteps(0);
  EXPECT_EQ(steps.size(), static_cast<std::size_t>(schedule_.steps()) + 1);
  EXPECT_EQ(steps.front(), schedule_.steps());
  EXPECT_EQ(steps.back(), 0);
}

TEST_F(SamplerTest, TimestepsAreNoiseUniform) {
  // Consecutive visited steps should cover roughly equal cumulative-flip
  // increments (the annealing property).
  DiffusionSampler s(schedule_, denoiser_);
  const auto steps = s.make_timesteps(16);
  const double top = schedule_.cumulative_flip(schedule_.steps());
  for (std::size_t i = 0; i + 2 < steps.size(); ++i) {
    const double drop =
        schedule_.cumulative_flip(steps[i]) - schedule_.cumulative_flip(steps[i + 1]);
    EXPECT_LT(drop, 2.5 * top / 16) << "jump " << steps[i] << "->" << steps[i + 1];
  }
}

TEST_F(SamplerTest, TimestepsFromIntermediateLevel) {
  DiffusionSampler s(schedule_, denoiser_);
  const auto steps = s.make_timesteps_from(40, 6);
  EXPECT_EQ(steps.front(), 40);
  EXPECT_EQ(steps.back(), 0);
}

TEST_F(SamplerTest, SampleDimsAndDeterminism) {
  DiffusionSampler s(schedule_, denoiser_);
  SampleConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.sample_steps = 8;
  cfg.polish_rounds = 1;
  util::Rng a(5), b(5);
  const squish::Topology t1 = s.sample(cfg, a);
  const squish::Topology t2 = s.sample(cfg, b);
  EXPECT_EQ(t1.rows(), 24);
  EXPECT_EQ(t1.cols(), 16);
  EXPECT_EQ(t1, t2) << "same seed must reproduce the sample";
  util::Rng c(6);
  EXPECT_NE(s.sample(cfg, c), t1);
}

TEST_F(SamplerTest, SampleApproximatesDataDensity) {
  DiffusionSampler s(schedule_, denoiser_);
  SampleConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.sample_steps = 16;
  util::Rng rng(7);
  double dens = 0;
  const int n = 6;
  for (int i = 0; i < n; ++i) dens += s.sample(cfg, rng).density();
  EXPECT_NEAR(dens / n, 0.5, 0.12) << "stripe data is half filled";
}

TEST_F(SamplerTest, ReverseStepValidation) {
  DiffusionSampler s(schedule_, denoiser_);
  util::Rng rng(1);
  squish::Topology x(8, 8);
  EXPECT_THROW(s.reverse_step(x, 5, 5, 0, rng), std::invalid_argument);
  EXPECT_THROW(s.reverse_step(x, 5, 9, 0, rng), std::invalid_argument);
}

TEST_F(SamplerTest, SampleFromRequiresDescendingToZero) {
  DiffusionSampler s(schedule_, denoiser_);
  util::Rng rng(1);
  squish::Topology x(8, 8);
  EXPECT_THROW(s.sample_from(x, {10, 5}, 0, rng), std::invalid_argument);
  EXPECT_THROW(s.sample_from(x, {0}, 0, rng), std::invalid_argument);
}

TEST_F(SamplerTest, GuidanceKeepsDensityOnTarget) {
  // With guidance off, the weak local model drifts away from the data
  // density; with guidance on it must stay close.
  SampleConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.sample_steps = 12;
  cfg.polish_rounds = 0;
  DiffusionSampler guided(schedule_, denoiser_);
  util::Rng rng(9);
  double d_guided = 0;
  for (int i = 0; i < 4; ++i) d_guided += guided.sample(cfg, rng).density();
  EXPECT_NEAR(d_guided / 4, 0.5, 0.1);
}

TEST_F(SamplerTest, MapPolishIsDeterministicAndStable) {
  DiffusionSampler s(schedule_, denoiser_);
  const squish::Topology clean = stripes(32, 3);
  const squish::Topology a = s.map_polish(clean, 16, 0);
  const squish::Topology b = s.map_polish(clean, 16, 0);
  EXPECT_EQ(a, b);
  // A clean data pattern should survive polish nearly unchanged.
  int diff = 0;
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) diff += a.at(r, c) != clean.at(r, c);
  }
  EXPECT_LT(diff, 64);
}

TEST_F(SamplerTest, MapPolishRespectsKeepMask) {
  DiffusionSampler s(schedule_, denoiser_);
  squish::Topology x(16, 16, 1);
  squish::Topology keep(16, 16, 1);
  const squish::Topology out = s.map_polish(x, 16, 0, keep);
  EXPECT_EQ(out, x);
}

TEST_F(SamplerTest, PolishRemovesSpeckle) {
  DiffusionSampler s(schedule_, denoiser_);
  squish::Topology noisy = stripes(32, 3);
  // Inject isolated flips.
  noisy.set(5, 5, noisy.at(5, 5) ? 0 : 1);
  noisy.set(20, 11, noisy.at(20, 11) ? 0 : 1);
  const squish::Topology polished = s.map_polish(noisy, 16, 0);
  int diff_to_clean = 0;
  const squish::Topology clean = stripes(32, 3);
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) diff_to_clean += polished.at(r, c) != clean.at(r, c);
  }
  EXPECT_LE(diff_to_clean, 1024 / 5) << "polish should not explode differences";
}

}  // namespace
}  // namespace cp::diffusion
