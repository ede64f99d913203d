#include "diffusion/sampler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "obs/registry.h"

namespace cp::diffusion {

std::vector<int> DiffusionSampler::make_timesteps(int count) const {
  return make_timesteps_from(schedule_->steps(), count);
}

std::vector<int> DiffusionSampler::make_timesteps_from(int k_start, int count) const {
  return make_timesteps_from(k_start, count, ScheduleKind::kNoiseUniform);
}

std::vector<int> DiffusionSampler::make_timesteps(int count, ScheduleKind kind) const {
  return make_timesteps_from(schedule_->steps(), count, kind);
}

std::vector<int> DiffusionSampler::make_timesteps_from(int k_start, int count,
                                                       ScheduleKind kind) const {
  const int k_max = std::clamp(k_start, 1, schedule_->steps());
  if (kind == ScheduleKind::kSearched && count > 0 && count < k_max) {
    if (!searched_.empty()) return TimestepSchedule::restrict_to(searched_, k_max);
    // No registered list: degrade to the closed-form default rather than
    // failing a serving request.
    obs::count("sampler/searched_fallback");
  }
  return TimestepSchedule::make(*schedule_, k_max, count);
}

void DiffusionSampler::set_searched_timesteps(std::vector<int> steps) {
  if (!steps.empty()) TimestepSchedule::validate(steps, schedule_->steps());
  searched_ = std::move(steps);
}

namespace {

constexpr double kProbEps = 1e-6;

/// log(p / (1 - p)) of p clamped away from 0 and 1.
inline double clamped_logit(double p) {
  const double pc = std::clamp(p, kProbEps, 1.0 - kProbEps);
  return std::log(pc / (1.0 - pc));
}

/// sigmoid(logit + lambda).
inline double shift_logit(double logit, double lambda) {
  return 1.0 / (1.0 + std::exp(-(logit + lambda)));
}

inline double shifted_prob(double p, double lambda) {
  if (lambda == 0.0) return p;
  return shift_logit(clamped_logit(p), lambda);
}

/// Dense ids, in first-seen order, for the distinct bit patterns of a stream
/// of floats: open addressing on the float bits, grown at half load. A
/// tabular denoiser returns few distinct predictions per grid, so per-value
/// work keyed by these ids replaces per-pixel work.
class DistinctFloats {
 public:
  std::uint32_t id(float v) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
    Slot& slot = slots_[find(bits)];
    if (slot.id_plus_1 != 0) return slot.id_plus_1 - 1;
    const auto id = static_cast<std::uint32_t>(values_.size());
    values_.push_back(v);
    slot = Slot{bits, id + 1};
    if (2 * values_.size() > slots_.size()) grow();
    return id;
  }

  const std::vector<float>& values() const { return values_; }

 private:
  struct Slot {
    std::uint32_t bits = 0;
    std::uint32_t id_plus_1 = 0;  // 0 = empty
  };

  /// The slot holding `bits`, or the empty slot where it belongs.
  std::size_t find(std::uint32_t bits) const {
    std::size_t s = (bits * 0x9E3779B1u) >> (32 - log2_slots_);
    while (slots_[s].id_plus_1 != 0 && slots_[s].bits != bits) s = (s + 1) & (slots_.size() - 1);
    return s;
  }
  void grow() {
    ++log2_slots_;
    slots_.assign(std::size_t{1} << log2_slots_, Slot{});
    for (std::uint32_t id = 0; id < values_.size(); ++id) {
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(values_[id]);
      slots_[find(bits)] = Slot{bits, id + 1};
    }
  }

  int log2_slots_ = 6;
  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << 6);
  std::vector<float> values_;
};

/// The guided reverse kernel P(x_to = 1 | x_from = old, p0) of one scan,
/// memoised per distinct p0: shifted_prob and reverse_p1 run once per
/// distinct prediction and return the same doubles a per-pixel evaluation
/// would.
class ReverseKernelMemo {
 public:
  ReverseKernelMemo(double lambda, double flip_0j, double flip_jk)
      : lambda_(lambda), flip_0j_(flip_0j), flip_jk_(flip_jk) {}

  double p1(std::uint8_t old, float p0) {
    const std::uint32_t id = distinct_.id(p0);
    if (id == p1_.size()) {
      const double p = shifted_prob(p0, lambda_);
      p1_.push_back({reverse_p1(0, p, flip_0j_, flip_jk_), reverse_p1(1, p, flip_0j_, flip_jk_)});
    }
    return p1_[id][old];
  }

 private:
  double lambda_, flip_0j_, flip_jk_;
  DistinctFloats distinct_;
  std::vector<std::array<double, 2>> p1_;  // by p0 id, then old value
};

}  // namespace

double DiffusionSampler::guidance_shift(const squish::Topology& xk, int k_from,
                                        int condition) const {
  if (!guidance_) return 0.0;
  const double target = denoiser_->prior_density(condition);
  if (target <= 0.0 || target >= 1.0) return 0.0;
  ProbGrid p0;
  denoiser_->predict_x0(xk, k_from, condition, p0);
  // Bisection on the uniform logit shift. Each iteration evaluates the
  // sigmoid once per distinct prediction and sums per pixel in row-major
  // order, so every partial sum equals the per-pixel evaluation's.
  DistinctFloats distinct;
  std::vector<std::uint32_t> ids(p0.size());
  for (std::size_t i = 0; i < p0.size(); ++i) ids[i] = distinct.id(p0[i]);
  const std::vector<float>& values = distinct.values();
  std::vector<double> logits(values.size());
  for (std::size_t d = 0; d < values.size(); ++d) logits[d] = clamped_logit(values[d]);
  std::vector<double> shifted(values.size());
  double lo = -8.0, hi = 8.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    for (std::size_t d = 0; d < values.size(); ++d) {
      // As in shifted_prob, a zero shift passes p through unclamped.
      shifted[d] = mid == 0.0 ? values[d] : shift_logit(logits[d], mid);
    }
    double mean = 0.0;
    for (const std::uint32_t id : ids) mean += shifted[id];
    mean /= static_cast<double>(p0.size());
    if (mean < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

squish::Topology DiffusionSampler::reverse_step(const squish::Topology& xk, int k_from, int k_to,
                                                int condition, util::Rng& rng) const {
  if (k_to >= k_from) throw std::invalid_argument("reverse_step: k_to must be < k_from");
  // Per-step granularity: one span per reverse jump, never per pixel (the
  // pixel loop is the hot path; see docs/OBSERVABILITY.md "Overhead").
  const obs::Span span = obs::trace_scope("denoise_step");
  obs::count("sampler/denoise_steps");
  const double flip_0j = schedule_->cumulative_flip(k_to);
  const double flip_jk = schedule_->flip_between(k_to, k_from);
  const double lambda = guidance_shift(xk, k_from, condition);
  // Update the grid in place: pixels already visited carry their k_to
  // values, pixels ahead still carry k_from values, and the denoiser is
  // re-queried on the evolving grid. A serpentine scan whose start corner
  // alternates with k_from removes the directional bias a fixed raster
  // order would imprint.
  ReverseKernelMemo kernel(lambda, flip_0j, flip_jk);
  squish::Topology x = xk;
  const bool flip_rows = (k_from % 2) == 0;
  for (int rr = 0; rr < x.rows(); ++rr) {
    const int r = flip_rows ? x.rows() - 1 - rr : rr;
    const bool reverse_cols = (rr % 2) == 1;
    for (int cc = 0; cc < x.cols(); ++cc) {
      const int c = reverse_cols ? x.cols() - 1 - cc : cc;
      const float p0 = denoiser_->predict_x0_pixel(x, r, c, k_from, condition);
      x.set(r, c, rng.bernoulli(kernel.p1(x.at(r, c), p0)) ? 1 : 0);
    }
  }
  return x;
}

squish::Topology DiffusionSampler::map_polish(squish::Topology x, int k, int condition,
                                              const squish::Topology& keep_mask) const {
  const obs::Span span = obs::trace_scope("map_polish");
  obs::count("sampler/map_polish_calls");
  const int kk = std::clamp(k, 1, schedule_->steps());
  // Treat the current pattern as if it sat at noise level kk and take the
  // most probable clean value per pixel, sequentially (serpentine).
  const double flip_jk = schedule_->cumulative_flip(kk);
  // Guidance for an argmax sweep must match the *fraction of pixels that
  // end up above threshold* to the prior density, not the mean probability
  // (mean-matching overshoots under argmax and oscillates). The shift is
  // chosen so the (1 - density)-quantile of the predictions lands at the
  // decision boundary implied by the hysteresis of the reverse kernel.
  double lambda = 0.0;
  if (guidance_) {
    const double target = denoiser_->prior_density(condition);
    if (target > 0.0 && target < 1.0) {
      ProbGrid p0;
      denoiser_->predict_x0(x, kk, condition, p0);
      const std::size_t idx = static_cast<std::size_t>(
          std::clamp((1.0 - target) * static_cast<double>(p0.size() - 1), 0.0,
                     static_cast<double>(p0.size() - 1)));
      std::nth_element(p0.begin(), p0.begin() + static_cast<std::ptrdiff_t>(idx), p0.end());
      const double q = std::clamp(static_cast<double>(p0[idx]), kProbEps, 1.0 - kProbEps);
      // Move the density-matching quantile to p = 0.5.
      lambda = -std::log(q / (1.0 - q));
      // Keep the correction gentle; the kernel's hysteresis does the rest.
      lambda = std::clamp(lambda, -2.0, 2.0);
    }
  }
  // Reverse distribution straight to level 0 (flip_0j = 0).
  ReverseKernelMemo kernel(lambda, 0.0, flip_jk);
  for (int rr = 0; rr < x.rows(); ++rr) {
    const int r = (kk % 2 == 0) ? x.rows() - 1 - rr : rr;
    const bool reverse_cols = (rr % 2) == 1;
    for (int cc = 0; cc < x.cols(); ++cc) {
      const int c = reverse_cols ? x.cols() - 1 - cc : cc;
      if (!keep_mask.empty() && keep_mask.at(r, c)) continue;
      const float p0 = denoiser_->predict_x0_pixel(x, r, c, kk, condition);
      x.set(r, c, kernel.p1(x.at(r, c), p0) > 0.5 ? 1 : 0);
    }
  }
  return x;
}

squish::Topology DiffusionSampler::sample(const SampleConfig& config, util::Rng& rng) const {
  const obs::Span span = obs::trace_scope("sampler/sample");
  obs::count("sampler/samples");
  // Word-parallel uniform init; one Bernoulli draw per cell in row-major
  // order, same stream as the scalar loop (see forward_noise).
  squish::Topology x(config.rows, config.cols);
  for (int r = 0; r < x.rows(); ++r) {
    for (int w = 0; w < x.words_per_row(); ++w) {
      const int bits = std::min(64, x.cols() - w * 64);
      std::uint64_t mask = 0;
      for (int j = 0; j < bits; ++j) {
        mask |= static_cast<std::uint64_t>(rng.bernoulli(0.5)) << j;
      }
      if (mask != 0) x.xor_word(r, w, mask);
    }
  }
  x = sample_from(std::move(x), make_timesteps(config.sample_steps, config.schedule_kind),
                  config.condition, rng);
  for (int round = 0; round < config.polish_rounds; ++round) {
    x = polish(std::move(x), config.polish_k, config.condition, rng);
  }
  return x;
}

squish::Topology DiffusionSampler::polish(squish::Topology x0, int polish_k, int condition,
                                          util::Rng& rng) const {
  const obs::Span span = obs::trace_scope("polish");
  obs::count("sampler/polish_rounds");
  const int k = std::clamp(polish_k, 1, schedule_->steps());
  squish::Topology xk = forward_noise(x0, *schedule_, k, rng);
  // Descend geometrically from k to 0.
  std::vector<int> steps;
  for (int j = k; j >= 1; j = j / 2) steps.push_back(j);
  steps.push_back(0);
  return sample_from(std::move(xk), steps, condition, rng);
}

squish::Topology DiffusionSampler::sample_from(squish::Topology x,
                                               const std::vector<int>& timesteps, int condition,
                                               util::Rng& rng) const {
  if (timesteps.size() < 2 || timesteps.back() != 0) {
    throw std::invalid_argument("sample_from: timestep list must descend to 0");
  }
  for (std::size_t i = 0; i + 1 < timesteps.size(); ++i) {
    x = reverse_step(x, timesteps[i], timesteps[i + 1], condition, rng);
  }
  return x;
}

}  // namespace cp::diffusion
