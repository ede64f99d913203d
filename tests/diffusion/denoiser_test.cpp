#include "diffusion/denoiser.h"

#include <gtest/gtest.h>

#include <cmath>

#include "diffusion/mlp_denoiser.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/transition.h"
#include "nn/gemm.h"

namespace cp::diffusion {
namespace {

squish::Topology stripes(int n, int period) {
  squish::Topology t(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) t.set(r, c, (c / period) % 2);
  }
  return t;
}

TEST(UniformDenoiserTest, PredictsClassDensity) {
  UniformDenoiser d({0.2f, 0.7f});
  ProbGrid p0;
  squish::Topology x(4, 4);
  d.predict_x0(x, 10, 0, p0);
  ASSERT_EQ(p0.size(), 16u);
  EXPECT_FLOAT_EQ(p0[0], 0.2f);
  d.predict_x0(x, 10, 1, p0);
  EXPECT_FLOAT_EQ(p0[3], 0.7f);
  EXPECT_EQ(d.conditions(), 2);
  EXPECT_THROW(d.predict_x0(x, 1, 2, p0), std::out_of_range);
  EXPECT_FLOAT_EQ(d.predict_x0_pixel(x, 0, 0, 1, 1), 0.7f);
}

TEST(TabularDenoiserTest, NeighborhoodIndexDistinguishesContexts) {
  squish::Topology a(8, 8);
  squish::Topology b(8, 8);
  b.set(4, 4, 1);
  EXPECT_NE(TabularDenoiser::neighborhood_index(a, 4, 4),
            TabularDenoiser::neighborhood_index(b, 4, 4));
  EXPECT_EQ(TabularDenoiser::neighborhood_index(a, 4, 4), 0);
}

TEST(TabularDenoiserTest, MirrorPaddingAtBorders) {
  squish::Topology t(8, 8, 1);
  // No out-of-bounds access, full index at corner.
  EXPECT_EQ(TabularDenoiser::neighborhood_index(t, 0, 0),
            (1 << TabularDenoiser::kNeighbors) - 1);
}

TEST(TabularDenoiserTest, LearnsIdentityAtLowNoise) {
  const NoiseSchedule s{ScheduleConfig{}};
  TabularConfig cfg;
  cfg.conditions = 1;
  cfg.draws_per_bucket = 4;
  TabularDenoiser d(s, cfg);
  util::Rng rng(1);
  std::vector<squish::Topology> data;
  for (int i = 0; i < 12; ++i) data.push_back(stripes(32, 2 + i % 3));
  d.fit(data, 0, rng);

  // At k=1 (almost no noise) the prediction should essentially echo x0.
  const squish::Topology x0 = stripes(32, 2);
  ProbGrid p0;
  d.predict_x0(x0, 1, 0, p0);
  double on = 0, off = 0;
  int on_n = 0, off_n = 0;
  std::size_t i = 0;
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c, ++i) {
      if (x0.at(r, c)) {
        on += p0[i];
        ++on_n;
      } else {
        off += p0[i];
        ++off_n;
      }
    }
  }
  EXPECT_GT(on / on_n, 0.85);
  EXPECT_LT(off / off_n, 0.15);
}

TEST(TabularDenoiserTest, ClassDensityTracked) {
  const NoiseSchedule s{ScheduleConfig{}};
  TabularConfig cfg;
  cfg.conditions = 2;
  cfg.draws_per_bucket = 1;
  TabularDenoiser d(s, cfg);
  util::Rng rng(1);
  d.fit({stripes(16, 2)}, 0, rng);             // density 0.5
  d.fit({squish::Topology(16, 16, 0)}, 1, rng); // density 0
  EXPECT_NEAR(d.class_density(0), 0.5, 1e-9);
  EXPECT_NEAR(d.class_density(1), 0.0, 1e-9);
  EXPECT_NEAR(d.prior_density(0), 0.5, 1e-9);
}

TEST(TabularDenoiserTest, PixelPredictionMatchesGrid) {
  const NoiseSchedule s{ScheduleConfig{}};
  TabularConfig cfg;
  cfg.conditions = 1;
  TabularDenoiser d(s, cfg);
  util::Rng rng(4);
  d.fit({stripes(16, 2)}, 0, rng);
  const squish::Topology x = forward_noise(stripes(16, 2), s, 40, rng);
  ProbGrid grid;
  d.predict_x0(x, 40, 0, grid);
  for (int r = 0; r < 16; r += 5) {
    for (int c = 0; c < 16; c += 3) {
      EXPECT_FLOAT_EQ(d.predict_x0_pixel(x, r, c, 40, 0),
                      grid[static_cast<std::size_t>(r) * 16 + c]);
    }
  }
}

TEST(TabularDenoiserTest, SaveLoadRoundTrip) {
  const NoiseSchedule s{ScheduleConfig{}};
  TabularConfig cfg;
  cfg.conditions = 1;
  TabularDenoiser d(s, cfg);
  util::Rng rng(4);
  d.fit({stripes(16, 2)}, 0, rng);
  std::stringstream ss;
  d.save(ss);
  TabularDenoiser d2(s, cfg);
  d2.load(ss);
  const squish::Topology x = stripes(16, 2);
  ProbGrid a, b;
  d.predict_x0(x, 5, 0, a);
  d2.predict_x0(x, 5, 0, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(TabularDenoiserTest, LoadIncompatibleThrows) {
  const NoiseSchedule s{ScheduleConfig{}};
  TabularConfig a;
  a.conditions = 1;
  TabularDenoiser d(s, a);
  std::stringstream ss;
  d.save(ss);
  TabularConfig b;
  b.conditions = 2;
  TabularDenoiser d2(s, b);
  EXPECT_THROW(d2.load(ss), std::runtime_error);
}

TEST(MlpDenoiserTest, OutputsAreProbabilities) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(1);
  MlpDenoiser d(s, MlpConfig{2, 16, 1}, rng);
  ProbGrid p0;
  d.predict_x0(stripes(16, 2), 100, 1, p0);
  ASSERT_EQ(p0.size(), 256u);
  for (float p : p0) {
    EXPECT_GT(p, 0.0f);
    EXPECT_LT(p, 1.0f);
  }
}

TEST(MlpDenoiserTest, PixelMatchesGrid) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(2);
  MlpDenoiser d(s, MlpConfig{1, 8, 1}, rng);
  const squish::Topology x = stripes(12, 3);
  ProbGrid grid;
  d.predict_x0(x, 17, 0, grid);
  EXPECT_NEAR(d.predict_x0_pixel(x, 5, 7, 17, 0), grid[5 * 12 + 7], 1e-6);
}

TEST(MlpDenoiserTest, GridMatchesTrainingForwardBitExactly) {
  // The inference path (plane-gathered features, cached time tail,
  // stateless blocked infer, SIMD on or off) against the training path
  // (per-pixel build_features, stateful forward): same bits. The forward
  // kernels equal the naive loop per nn/gemm_test.
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(7);
  MlpDenoiser d(s, MlpConfig{2, 64, 2}, rng);
  util::Rng noise(8);
  const squish::Topology x = forward_noise(stripes(70, 3), s, 40, noise);
  const bool simd = nn::gemm::simd_enabled();
  for (const bool vec : {false, true}) {
    nn::gemm::set_simd_enabled(vec);
    for (const int cond : {0, 1}) {
      const nn::Tensor logits = d.net().forward(d.build_features(x, 40, cond));
      ProbGrid grid;
      d.predict_x0(x, 40, cond, grid);
      ASSERT_EQ(grid.size(), logits.numel());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_EQ(grid[i], 1.0f / (1.0f + std::exp(-logits[i])))
            << "simd " << vec << " cond " << cond << " cell " << i;
      }
    }
  }
  nn::gemm::set_simd_enabled(simd);
}

TEST(MlpDenoiserTest, ConditionChangesOutput) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(3);
  MlpDenoiser d(s, MlpConfig{2, 16, 2}, rng);
  ProbGrid a, b;
  const squish::Topology x = stripes(8, 2);
  d.predict_x0(x, 10, 0, a);
  d.predict_x0(x, 10, 1, b);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff |= a[i] != b[i];
  EXPECT_TRUE(any_diff);
}

TEST(MlpDenoiserTest, FeatureDimAccountsForConditions) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(4);
  MlpDenoiser d2(s, MlpConfig{2, 8, 1}, rng);
  MlpDenoiser d3(s, MlpConfig{3, 8, 1}, rng);
  EXPECT_EQ(d3.feature_dim(), d2.feature_dim() + 1);
}

TEST(MlpDenoiserTest, TinyGridFeaturesUseTheTabularMirror) {
  // On grids under five cells a distance-4 probe crosses both borders; the
  // MLP's neighbour features must still read in-grid cells, the same ones
  // the tabular index reads.
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(4);
  MlpDenoiser d(s, MlpConfig{1, 8, 1}, rng);
  std::vector<float> features(static_cast<std::size_t>(d.feature_dim()));
  for (int n = 1; n <= 5; ++n) {
    squish::Topology x(n, n + 1);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c <= n; ++c) x.set(r, c, rng.bernoulli(0.5) ? 1 : 0);
    }
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c <= n; ++c) {
        d.pixel_features(x, r, c, 10, 0, features.data());
        const int index = TabularDenoiser::neighborhood_index(x, r, c);
        for (int i = 0; i < TabularDenoiser::kNeighbors; ++i) {
          EXPECT_EQ(features[static_cast<std::size_t>(i)], ((index >> i) & 1) ? 1.0f : -1.0f)
              << "n=" << n << " cell (" << r << "," << c << ") neighbour " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cp::diffusion
