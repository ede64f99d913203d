// Few-step (fast) sampling engine: analytic correctness of the composed
// skipped-step transitions and the stride-1 regression anchor.
//
// Two families of claims:
//   1. Algebra. The composed channel over a jump [j, k] equals the literal
//      2x2 matrix product of the per-step bit-flip channels, and the
//      skipped-step posterior equals exact marginalisation over any
//      intermediate visited step — i.e. striding is exact, not an
//      approximation (DiffPattern-Flex).
//   2. Anchor. The degenerate budget (count <= 0 or >= k_start) yields the
//      full chain {k_start, ..., 0} for EVERY ScheduleKind, so fast sampling
//      at stride 1 is bit-identical to the original sampler on both the
//      tabular and the MLP denoiser. This is what keeps every existing
//      golden valid.

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "diffusion/mlp_denoiser.h"
#include "diffusion/sampler.h"
#include "diffusion/tabular_denoiser.h"
#include "diffusion/timestep_schedule.h"
#include "diffusion/transition.h"

namespace cp::diffusion {
namespace {

squish::Topology stripes(int n, int period) {
  squish::Topology t(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) t.set(r, c, (c / period) % 2);
  }
  return t;
}

/// Row-major 2x2 stochastic matrix of the symmetric bit-flip channel.
using Channel = std::array<double, 4>;

Channel flip_channel(double f) { return {1.0 - f, f, f, 1.0 - f}; }

Channel matmul(const Channel& a, const Channel& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

// ---- the composed-channel algebra ---------------------------------------

/// The recurrence form of flip_between is only identifiable while the start
/// level is not yet fully mixed: at cumulative flip 0.5 the denominator
/// 1 - 2 bbar_j vanishes and the implementation returns 0.5 by convention
/// (harmless — the state there is uniform and independent of x_0 to float
/// precision). Exact-identity checks restrict themselves to
/// well-conditioned start levels, the convention is asserted past the
/// implementation's 1e-12 cutoff, and the ill-conditioned band in between
/// is skipped.
bool conditioned(const NoiseSchedule& s, int level) {
  return 1.0 - 2.0 * s.cumulative_flip(level) > 1e-6;
}

bool saturated(const NoiseSchedule& s, int level) {
  return 1.0 - 2.0 * s.cumulative_flip(level) <= 1e-12;
}

TEST(FastSamplerTest, ComposedChannelEqualsPerStepMatrixProduct) {
  // flip_between(j, k) must equal the off-diagonal of the literal product
  // Q_{j+1} Q_{j+2} ... Q_k of per-step transition matrices — every pair of
  // a small schedule, checked to float noise.
  const NoiseSchedule s{ScheduleConfig{13, 0.01, 0.5}};
  for (int j = 0; j <= s.steps(); ++j) {
    for (int k = j; k <= s.steps(); ++k) {
      Channel prod = flip_channel(0.0);
      for (int i = j + 1; i <= k; ++i) prod = matmul(prod, flip_channel(s.beta(i)));
      // The eigenvalue form is the same product, so it matches to rounding.
      EXPECT_NEAR(s.flip_between_product(j, k), prod[1], 1e-12)
          << "jump " << j << "->" << k;
      if (saturated(s, j)) {
        EXPECT_DOUBLE_EQ(s.flip_between(j, k), 0.5) << "saturation convention";
      } else if (conditioned(s, j)) {
        EXPECT_NEAR(s.flip_between(j, k), prod[1], 1e-9) << "jump " << j << "->" << k;
      }
      // The product stays a symmetric channel (rows sum to 1, off-diagonals
      // equal): the closed form exists because of this.
      EXPECT_NEAR(prod[1], prod[2], 1e-12);
      EXPECT_NEAR(prod[0] + prod[1], 1.0, 1e-12);
    }
  }
}

TEST(FastSamplerTest, FlipBetweenProductIdentityMatchesRecurrence) {
  // 1 - 2f = prod (1 - 2 beta_i): the eigenvalue form must agree with the
  // two-term recurrence across the paper's full 1000-step schedule wherever
  // the recurrence is identifiable; past mixing it returns 0.5 exactly.
  const NoiseSchedule s{ScheduleConfig{}};
  for (int j : {0, 1, 7, 100, 500, 998}) {
    for (int k : {1, 8, 101, 501, 999, 1000}) {
      if (j > k) continue;
      if (saturated(s, j)) {
        EXPECT_DOUBLE_EQ(s.flip_between(j, k), 0.5) << "jump " << j << "->" << k;
      } else if (conditioned(s, j)) {
        EXPECT_NEAR(s.flip_between(j, k), s.flip_between_product(j, k), 1e-9)
            << "jump " << j << "->" << k;
      }
    }
  }
}

TEST(FastSamplerTest, ComposeFlipSplitsAnyJump) {
  // Splitting a jump at any intermediate step and composing the halves must
  // reproduce the whole: f(j,k) = compose(f(j,m), f(m,k)). Kept to levels
  // where the recurrence is well-conditioned (see well_mixed).
  const NoiseSchedule s{ScheduleConfig{64, 0.02, 0.25}};
  for (int j : {0, 3, 10}) {
    for (int m : {5, 12, 20}) {
      for (int k : {13, 21, 30}) {
        if (!(j < m && m < k)) continue;
        ASSERT_TRUE(conditioned(s, m));
        EXPECT_NEAR(s.flip_between(j, k),
                    NoiseSchedule::compose_flip(s.flip_between(j, m), s.flip_between(m, k)),
                    1e-9)
            << j << "->" << m << "->" << k;
      }
    }
  }
}

TEST(FastSamplerTest, SkippedPosteriorMarginalisesIntermediateStep) {
  // q(x_j | x_k, x_0) computed directly over the jump [j, k] must equal the
  // exact marginalisation over any skipped visited step m (j < m < k):
  //   P(x_j | x_k, x_0) = sum_v P(x_j | x_m = v, x_0) P(x_m = v | x_k, x_0).
  // A gentle schedule keeps every level well-conditioned so the identity
  // holds to near machine precision.
  const NoiseSchedule s{ScheduleConfig{40, 0.01, 0.2}};
  for (int j : {0, 2, 10}) {
    for (int m : {5, 15, 25}) {
      for (int k : {16, 26, 40}) {
        if (!(j < m && m < k)) continue;
        for (int xk : {0, 1}) {
          for (int x0 : {0, 1}) {
            const double direct = posterior_p1(xk, x0, s.cumulative_flip(j),
                                               s.flip_between(j, k));
            const double pm1 = posterior_p1(xk, x0, s.cumulative_flip(m),
                                            s.flip_between(m, k));
            const double via1 = posterior_p1(1, x0, s.cumulative_flip(j),
                                             s.flip_between(j, m));
            const double via0 = posterior_p1(0, x0, s.cumulative_flip(j),
                                             s.flip_between(j, m));
            EXPECT_NEAR(direct, pm1 * via1 + (1.0 - pm1) * via0, 1e-9)
                << j << "<-" << m << "<-" << k << " xk=" << xk << " x0=" << x0;
          }
        }
      }
    }
  }
}

TEST(FastSamplerTest, ComposedJumpsMatchScheduleAndValidate) {
  const NoiseSchedule s{ScheduleConfig{100, 0.01, 0.5}};
  const std::vector<int> steps = {100, 40, 7, 1, 0};
  const auto jumps = composed_jumps(s, steps);
  ASSERT_EQ(jumps.size(), steps.size() - 1);
  for (std::size_t i = 0; i < jumps.size(); ++i) {
    EXPECT_EQ(jumps[i].k_from, steps[i]);
    EXPECT_EQ(jumps[i].k_to, steps[i + 1]);
    EXPECT_DOUBLE_EQ(jumps[i].flip_0to, s.cumulative_flip(steps[i + 1]));
    EXPECT_DOUBLE_EQ(jumps[i].flip_tofrom, s.flip_between(steps[i + 1], steps[i]));
  }
  EXPECT_THROW(composed_jumps(s, {50}), std::invalid_argument);
  EXPECT_THROW(composed_jumps(s, {50, 50, 0}), std::invalid_argument);
  EXPECT_THROW(composed_jumps(s, {50, 60, 0}), std::invalid_argument);
  EXPECT_THROW(composed_jumps(s, {101, 50, 0}), std::invalid_argument);
}

// ---- TimestepSchedule construction --------------------------------------

TEST(FastSamplerTest, NoiseUniformListShapeInvariants) {
  const NoiseSchedule s{ScheduleConfig{}};
  for (int count : {2, 5, 16, 50}) {
    const auto steps = TimestepSchedule::make(s, s.steps(), count);
    ASSERT_GE(steps.size(), 3u) << "count=" << count;
    EXPECT_EQ(steps.front(), s.steps());
    EXPECT_EQ(steps[steps.size() - 2], 1);
    EXPECT_EQ(steps.back(), 0);
    for (std::size_t i = 1; i < steps.size(); ++i) {
      ASSERT_LT(steps[i], steps[i - 1]) << "count=" << count;
    }
    EXPECT_NO_THROW(TimestepSchedule::validate(steps, s.steps()));
    // The budget is honoured approximately (list construction may merge
    // adjacent targets) and never exceeded by more than the forced {1, 0}
    // tail.
    EXPECT_LE(static_cast<int>(steps.size()), count + 2);
  }
}

TEST(FastSamplerTest, DegenerateBudgetYieldsFullChain) {
  // THE stride-1 invariant: count <= 0 or >= k_start collapses to the full
  // list, so "fast sampling, stride 1" IS the original chain.
  const NoiseSchedule s{ScheduleConfig{64, 0.01, 0.5}};
  std::vector<int> full;
  for (int k = 64; k >= 0; --k) full.push_back(k);
  for (int count : {0, -3, 64, 65, 1000}) {
    EXPECT_EQ(TimestepSchedule::make(s, 64, count), full) << "count=" << count;
  }
}

TEST(FastSamplerTest, KindStringsRoundTrip) {
  for (ScheduleKind kind : {ScheduleKind::kNoiseUniform, ScheduleKind::kSearched}) {
    EXPECT_TRUE(is_schedule_kind(to_string(kind)));
    EXPECT_EQ(schedule_kind_from_string(to_string(kind)), kind);
  }
  for (const char* name : {"ddim", "uniform", "quadratic", ""}) {
    EXPECT_FALSE(is_schedule_kind(name)) << name;
    EXPECT_THROW(schedule_kind_from_string(name), std::invalid_argument) << name;
  }
}

TEST(FastSamplerTest, ValidateRejectsMalformedLists) {
  EXPECT_NO_THROW(TimestepSchedule::validate({100, 10, 1, 0}, 100));
  EXPECT_THROW(TimestepSchedule::validate({}, 100), std::invalid_argument);
  EXPECT_THROW(TimestepSchedule::validate({0}, 100), std::invalid_argument);
  EXPECT_THROW(TimestepSchedule::validate({100, 10, 1}, 100), std::invalid_argument);
  EXPECT_THROW(TimestepSchedule::validate({100, 10, 10, 0}, 100), std::invalid_argument);
  EXPECT_THROW(TimestepSchedule::validate({100, 50, 0}, 99), std::invalid_argument);
}

TEST(FastSamplerTest, RestrictToReusesSearchedListMidChain) {
  const std::vector<int> full = {1000, 600, 300, 100, 20, 1, 0};
  // Level present in the list: keep the suffix.
  EXPECT_EQ(TimestepSchedule::restrict_to(full, 300), (std::vector<int>{300, 100, 20, 1, 0}));
  // Level absent: it becomes the new head.
  EXPECT_EQ(TimestepSchedule::restrict_to(full, 250), (std::vector<int>{250, 100, 20, 1, 0}));
  // Very low starts still produce a walkable {k, ..., 1, 0} list.
  EXPECT_EQ(TimestepSchedule::restrict_to(full, 1), (std::vector<int>{1, 0}));
  EXPECT_EQ(TimestepSchedule::restrict_to(full, 2), (std::vector<int>{2, 1, 0}));
}

// ---- sampler plumbing ----------------------------------------------------

class FastSamplerFixture : public ::testing::Test {
 protected:
  FastSamplerFixture() : schedule_(ScheduleConfig{}), denoiser_(make_denoiser()) {}

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

TEST_F(FastSamplerFixture, KindAwareNoiseUniformMatchesLegacyByteForByte) {
  const DiffusionSampler s(schedule_, denoiser_);
  for (int count : {0, 4, 16, 50, 1000}) {
    EXPECT_EQ(s.make_timesteps(count, ScheduleKind::kNoiseUniform), s.make_timesteps(count));
    EXPECT_EQ(s.make_timesteps_from(40, count, ScheduleKind::kNoiseUniform),
              s.make_timesteps_from(40, count));
  }
}

TEST_F(FastSamplerFixture, SearchedFallsBackToNoiseUniformWhenUnset) {
  const DiffusionSampler s(schedule_, denoiser_);
  EXPECT_TRUE(s.searched_timesteps().empty());
  EXPECT_EQ(s.make_timesteps(16, ScheduleKind::kSearched),
            s.make_timesteps(16, ScheduleKind::kNoiseUniform));
}

TEST_F(FastSamplerFixture, SearchedListIsRestrictedToPartialChains) {
  DiffusionSampler s(schedule_, denoiser_);
  const std::vector<int> list = {1000, 600, 300, 100, 20, 1, 0};
  s.set_searched_timesteps(list);
  EXPECT_EQ(s.make_timesteps(4, ScheduleKind::kSearched), list);
  EXPECT_EQ(s.make_timesteps_from(300, 3, ScheduleKind::kSearched),
            (std::vector<int>{300, 100, 20, 1, 0}));
  // Degenerate budgets still mean "full chain", even with a registered list.
  EXPECT_EQ(s.make_timesteps(0, ScheduleKind::kSearched),
            s.make_timesteps(0, ScheduleKind::kNoiseUniform));
  EXPECT_THROW(s.set_searched_timesteps({10, 20, 0}), std::invalid_argument);
}

TEST_F(FastSamplerFixture, Stride1BitIdenticalAcrossKindsTabular) {
  // sample_steps = 0 (and = K) are degenerate budgets: both kinds must walk
  // the identical full chain and consume the identical Rng stream, making
  // the outputs bit-equal — the regression anchor for the existing goldens.
  // A registered searched list must not change that.
  DiffusionSampler s(schedule_, denoiser_);
  s.set_searched_timesteps({1000, 600, 300, 100, 20, 1, 0});
  SampleConfig base;
  base.rows = 24;
  base.cols = 16;
  base.sample_steps = 0;
  base.polish_rounds = 1;
  util::Rng ref_rng(11);
  const squish::Topology ref = s.sample(base, ref_rng);
  SampleConfig cfg = base;
  cfg.schedule_kind = ScheduleKind::kSearched;
  util::Rng rng(11);
  EXPECT_EQ(s.sample(cfg, rng), ref) << "steps=0";
  cfg.sample_steps = schedule_.steps();
  util::Rng rng2(11);
  EXPECT_EQ(s.sample(cfg, rng2), ref) << "steps=K";
}

TEST_F(FastSamplerFixture, Stride1BitIdenticalAcrossKindsMlp) {
  util::Rng init(3);
  const MlpDenoiser mlp(schedule_, MlpConfig{1, 16, 1}, init);
  const DiffusionSampler s(schedule_, mlp);
  SampleConfig base;
  base.rows = 12;
  base.cols = 12;
  base.sample_steps = 0;
  base.polish_rounds = 1;
  util::Rng ref_rng(21);
  const squish::Topology ref = s.sample(base, ref_rng);
  SampleConfig cfg = base;
  cfg.schedule_kind = ScheduleKind::kSearched;
  util::Rng rng(21);
  EXPECT_EQ(s.sample(cfg, rng), ref);
}

TEST_F(FastSamplerFixture, FewStepNoiseUniformSpendsBudgetBelowMixing) {
  // On the paper's schedule the chain is fully mixed beyond small k, so the
  // noise-uniform placement jumps from K straight to a low level and spends
  // the rest of its budget there.
  const DiffusionSampler s(schedule_, denoiser_);
  const auto nu = s.make_timesteps(50, ScheduleKind::kNoiseUniform);
  EXPECT_NE(nu, s.make_timesteps(0, ScheduleKind::kNoiseUniform));
  EXPECT_LE(nu.size(), 52u);
  ASSERT_GE(nu.size(), 3u);
  EXPECT_EQ(nu[0], schedule_.steps());
  EXPECT_LT(nu[1], schedule_.steps() / 10);
}

TEST_F(FastSamplerFixture, GreedySearchImprovesHeldOutJumpLoss) {
  std::vector<std::vector<squish::Topology>> held_out(1);
  for (int p = 2; p <= 4; ++p) held_out[0].push_back(stripes(32, p));
  SearchConfig cfg;
  cfg.budget = 8;
  cfg.candidate_pool = 24;
  cfg.max_per_class = 2;
  cfg.probes = 1;
  const SearchResult res = search_timesteps(schedule_, denoiser_, held_out, cfg);
  ASSERT_GE(res.timesteps.size(), 3u);
  EXPECT_NO_THROW(TimestepSchedule::validate(res.timesteps, schedule_.steps()));
  EXPECT_EQ(res.timesteps.front(), schedule_.steps());
  EXPECT_EQ(static_cast<int>(res.timesteps.size()), cfg.budget + 1);  // + terminal 0
  // Greedy insertion only ever adds the best split, so the summed jump loss
  // must be monotonically non-increasing from the {K, 1, 0} seed.
  EXPECT_LE(res.final_loss, res.initial_loss + 1e-12);
  // Deterministic in the config seed.
  const SearchResult again = search_timesteps(schedule_, denoiser_, held_out, cfg);
  EXPECT_EQ(res.timesteps, again.timesteps);
  EXPECT_DOUBLE_EQ(res.final_loss, again.final_loss);
}

}  // namespace
}  // namespace cp::diffusion
