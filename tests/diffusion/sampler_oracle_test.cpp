// Oracle for DiffusionSampler's reverse kernel. The sampler evaluates the
// guidance bisection and the shifted reverse kernel once per distinct p0
// value; the reference below evaluates them once per pixel, as a direct
// transcription of Equations (9)/(11) with mean-matching guidance. Every
// output bit, every guidance shift and the RNG stream position must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "diffusion/mlp_denoiser.h"
#include "diffusion/sampler.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/transition.h"

namespace cp::diffusion {
namespace {

using squish::Topology;

// ---- per-pixel reference -------------------------------------------------

constexpr double kProbEps = 1e-6;

double ref_shifted_prob(double p, double lambda) {
  if (lambda == 0.0) return p;
  const double pc = std::clamp(p, kProbEps, 1.0 - kProbEps);
  const double logit = std::log(pc / (1.0 - pc)) + lambda;
  return 1.0 / (1.0 + std::exp(-logit));
}

double ref_guidance_shift(const DiffusionSampler& s, const Topology& xk, int k_from,
                          int condition) {
  if (!s.guidance()) return 0.0;
  const double target = s.denoiser().prior_density(condition);
  if (target <= 0.0 || target >= 1.0) return 0.0;
  ProbGrid p0;
  s.denoiser().predict_x0(xk, k_from, condition, p0);
  double lo = -8.0, hi = 8.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double mean = 0.0;
    for (float p : p0) mean += ref_shifted_prob(p, mid);
    mean /= static_cast<double>(p0.size());
    if (mean < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Serpentine Gibbs-style scan; the start corner alternates with k_from.
Topology ref_reverse_step(const DiffusionSampler& s, const Topology& xk, int k_from, int k_to,
                          int condition, util::Rng& rng) {
  const double flip_0j = s.schedule().cumulative_flip(k_to);
  const double flip_jk = s.schedule().flip_between(k_to, k_from);
  const double lambda = ref_guidance_shift(s, xk, k_from, condition);
  Topology x = xk;
  const bool flip_rows = (k_from % 2) == 0;
  for (int rr = 0; rr < x.rows(); ++rr) {
    const int r = flip_rows ? x.rows() - 1 - rr : rr;
    const bool reverse_cols = (rr % 2) == 1;
    for (int cc = 0; cc < x.cols(); ++cc) {
      const int c = reverse_cols ? x.cols() - 1 - cc : cc;
      const std::uint8_t old = x.at(r, c);
      const float p0 = s.denoiser().predict_x0_pixel(x, r, c, k_from, condition);
      const double p1 = reverse_p1(old, ref_shifted_prob(p0, lambda), flip_0j, flip_jk);
      x.set(r, c, rng.bernoulli(p1) ? 1 : 0);
    }
  }
  return x;
}

/// MAP sweep with the guidance quantile taken from a full sort.
Topology ref_map_polish(const DiffusionSampler& s, Topology x, int k, int condition,
                        const Topology& keep_mask) {
  const int kk = std::clamp(k, 1, s.schedule().steps());
  const double flip_jk = s.schedule().cumulative_flip(kk);
  double lambda = 0.0;
  if (s.guidance()) {
    const double target = s.denoiser().prior_density(condition);
    if (target > 0.0 && target < 1.0) {
      ProbGrid p0;
      s.denoiser().predict_x0(x, kk, condition, p0);
      std::vector<float> sorted(p0.begin(), p0.end());
      std::sort(sorted.begin(), sorted.end());
      const std::size_t idx = static_cast<std::size_t>(
          std::clamp((1.0 - target) * static_cast<double>(sorted.size() - 1), 0.0,
                     static_cast<double>(sorted.size() - 1)));
      const double q = std::clamp(static_cast<double>(sorted[idx]), kProbEps, 1.0 - kProbEps);
      lambda = std::clamp(-std::log(q / (1.0 - q)), -2.0, 2.0);
    }
  }
  for (int rr = 0; rr < x.rows(); ++rr) {
    const int r = (kk % 2 == 0) ? x.rows() - 1 - rr : rr;
    const bool reverse_cols = (rr % 2) == 1;
    for (int cc = 0; cc < x.cols(); ++cc) {
      const int c = reverse_cols ? x.cols() - 1 - cc : cc;
      if (!keep_mask.empty() && keep_mask.at(r, c)) continue;
      const std::uint8_t old = x.at(r, c);
      const float p0 = s.denoiser().predict_x0_pixel(x, r, c, kk, condition);
      const double p1 = reverse_p1(old, ref_shifted_prob(p0, lambda), 0.0, flip_jk);
      x.set(r, c, p1 > 0.5 ? 1 : 0);
    }
  }
  return x;
}

// ---- denoisers under test --------------------------------------------------

/// Reports a prior density on top of another denoiser, so mean-matching
/// guidance runs for denoisers that carry none (the MLP, the uniform
/// control).
class WithPrior : public Denoiser {
 public:
  WithPrior(const Denoiser& inner, std::vector<double> density)
      : inner_(&inner), density_(std::move(density)) {}
  void predict_x0(const Topology& xk, int k, int condition, ProbGrid& p0) const override {
    inner_->predict_x0(xk, k, condition, p0);
  }
  float predict_x0_pixel(const Topology& xk, int r, int c, int k, int condition) const override {
    return inner_->predict_x0_pixel(xk, r, c, k, condition);
  }
  int conditions() const override { return inner_->conditions(); }
  double prior_density(int condition) const override {
    return density_[static_cast<std::size_t>(condition)];
  }
  const char* name() const override { return inner_->name(); }

 private:
  const Denoiser* inner_;
  std::vector<double> density_;
};

Topology stripes(int rows, int cols, int period) {
  Topology t(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) t.set(r, c, ((c / period) + (r / (3 * period))) % 2);
  }
  return t;
}

Topology random_mask(int rows, int cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Topology m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m.set(r, c, rng.bernoulli(0.3) ? 1 : 0);
  }
  return m;
}

std::string bits_of(double v) { return std::to_string(std::bit_cast<std::uint64_t>(v)); }

class SamplerOracleTest : public ::testing::Test {
 protected:
  SamplerOracleTest()
      : schedule_(ScheduleConfig{}),
        tabular_(make_tabular(schedule_)),
        uniform_({0.3f, 0.6f}),
        uniform_prior_(uniform_, {0.3, 0.6}),
        mlp_(make_mlp(schedule_, false)),
        mlp_int8_(make_mlp(schedule_, true)),
        mlp_prior_(mlp_, {0.35, 0.5}),
        mlp_int8_prior_(mlp_int8_, {0.35, 0.5}) {}

  static TabularDenoiser make_tabular(const NoiseSchedule& schedule) {
    TabularConfig cfg;
    cfg.conditions = 2;
    cfg.draws_per_bucket = 2;
    TabularDenoiser d(schedule, cfg);
    util::Rng rng(1);
    d.fit({stripes(32, 32, 2), stripes(32, 32, 3)}, 0, rng);
    d.fit({stripes(32, 32, 4), stripes(32, 32, 5)}, 1, rng);
    return d;
  }

  /// Untrained weights are enough for bit-identity; the same seed gives the
  /// fp32 model and its int8 twin the same weights.
  static MlpDenoiser make_mlp(const NoiseSchedule& schedule, bool quantized) {
    util::Rng rng(5);
    return MlpDenoiser(schedule, MlpConfig{2, 16, 2, quantized}, rng);
  }

  /// Compare reverse steps, guidance shifts and MAP sweeps of the sampler
  /// against the reference on an n x n grid, over both conditions, guidance
  /// on and off, and two noise-level pairs per case.
  void check_grid(const Denoiser& denoiser, int n, const char* label) {
    const int K = schedule_.steps();
    const std::vector<std::pair<int, int>> jumps = {
        {K, K / 2}, {30, 25}, {9, 4}, {2, 1}, {1, 0}};
    const std::vector<int> polish_levels = {1, 8, 16};
    const Topology x0 = stripes(n, n, 2);
    const Topology keep = random_mask(n, n, 77 + static_cast<std::uint64_t>(n));
    DiffusionSampler s(schedule_, denoiser);
    int variant = 0;
    for (int condition : {0, 1}) {
      for (bool guidance : {true, false}) {
        for (int pass = 0; pass < 2; ++pass) {
          ++variant;
          s.set_guidance(guidance);
          const auto [k_from, k_to] = jumps[static_cast<std::size_t>(variant) % jumps.size()];
          SCOPED_TRACE(std::string(label) + " n=" + std::to_string(n) +
                       " cond=" + std::to_string(condition) + " guidance=" +
                       std::to_string(guidance) + " k=" + std::to_string(k_from) + "->" +
                       std::to_string(k_to));
          util::Rng noise(1000 + static_cast<std::uint64_t>(variant));
          const Topology xk = forward_noise(x0, schedule_, k_from, noise);

          ASSERT_EQ(bits_of(s.guidance_shift(xk, k_from, condition)),
                    bits_of(ref_guidance_shift(s, xk, k_from, condition)));

          util::Rng rng_new(42 + static_cast<std::uint64_t>(variant));
          util::Rng rng_ref(42 + static_cast<std::uint64_t>(variant));
          const Topology got = s.reverse_step(xk, k_from, k_to, condition, rng_new);
          const Topology want = ref_reverse_step(s, xk, k_from, k_to, condition, rng_ref);
          ASSERT_EQ(got, want);
          ASSERT_EQ(rng_new.next_u64(), rng_ref.next_u64()) << "RNG stream position differs";

          const int polish_k = polish_levels[static_cast<std::size_t>(variant) %
                                             polish_levels.size()];
          const Topology mask = (variant % 2 == 0) ? keep : Topology();
          ASSERT_EQ(s.map_polish(got, polish_k, condition, mask),
                    ref_map_polish(s, got, polish_k, condition, mask))
              << "map_polish k=" << polish_k << " masked=" << !mask.empty();
        }
      }
    }
  }

  NoiseSchedule schedule_;
  TabularDenoiser tabular_;
  UniformDenoiser uniform_;
  WithPrior uniform_prior_;
  MlpDenoiser mlp_;
  MlpDenoiser mlp_int8_;
  WithPrior mlp_prior_;
  WithPrior mlp_int8_prior_;
};

// Grid sizes: 1, 3 and 5 sit entirely inside the neighbourhood's mirror
// fallback; 200 is wider than 64 and not a multiple of it.
const int kSizes[] = {1, 3, 5, 32, 128, 200};

TEST_F(SamplerOracleTest, TabularMatchesPerPixelReference) {
  for (int n : kSizes) check_grid(tabular_, n, "tabular");
}

TEST_F(SamplerOracleTest, UniformMatchesPerPixelReference) {
  // One distinct prediction per condition, with and without a prior.
  for (int n : kSizes) {
    check_grid(uniform_, n, "uniform");
    check_grid(uniform_prior_, n, "uniform+prior");
  }
}

TEST_F(SamplerOracleTest, MlpMatchesPerPixelReference) {
  // Nearly every prediction is distinct.
  for (int n : kSizes) check_grid(mlp_prior_, n, "mlp");
}

TEST_F(SamplerOracleTest, MlpInt8MatchesPerPixelReference) {
  for (int n : kSizes) check_grid(mlp_int8_prior_, n, "mlp-int8");
}

/// Every pixel predicts `p` and the prior density is exactly `p`.
class ConstantDenoiser : public Denoiser {
 public:
  explicit ConstantDenoiser(float p) : p_(p) {}
  void predict_x0(const Topology& xk, int, int, ProbGrid& p0) const override {
    p0.assign(xk.size(), p_);
  }
  float predict_x0_pixel(const Topology&, int, int, int, int) const override { return p_; }
  int conditions() const override { return 1; }
  double prior_density(int) const override { return p_; }
  const char* name() const override { return "ConstantDenoiser"; }

 private:
  float p_;
};

TEST_F(SamplerOracleTest, ZeroShiftPassesPredictionsThroughUnclamped) {
  // The bisection's first midpoint is exactly 0, where the per-pixel kernel
  // returns p itself. Here the mean of the predictions equals the target,
  // so that first comparison decides the sign of the shift; recomputing
  // sigmoid(logit(p)) at zero lands one rounding below p and flips it.
  const float p = 0.2f;
  const double pd = p;
  ASSERT_LT(1.0 / (1.0 + std::exp(-std::log(pd / (1.0 - pd)))), pd)
      << "premise: sigmoid(logit(p)) must round below p";
  const ConstantDenoiser denoiser(p);
  const DiffusionSampler s(schedule_, denoiser);
  const Topology xk(16, 16);
  const double lambda = s.guidance_shift(xk, 10, 0);
  EXPECT_EQ(bits_of(lambda), bits_of(ref_guidance_shift(s, xk, 10, 0)));
  EXPECT_LT(lambda, 0.0);
}

}  // namespace
}  // namespace cp::diffusion
