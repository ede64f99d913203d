#pragma once
// Conditional reverse-process sampling (Equations (9) and (11)).
//
// Sampling starts from iid fair coin flips (the terminal distribution of the
// beta_K = 0.5 schedule) and walks a descending list of timesteps. With the
// full list {K, K-1, ..., 0} this is exactly Equation (11); with a strided
// sublist it is the D3PM analogue of DDIM sub-sampling: the composed
// two-state channel between visited steps is still exact (flip_between), so
// striding trades sample quality for speed without approximating the
// algebra. CPU benches default to ~16 visited steps (ablated in
// bench/ablation_sampler).

#include <vector>

#include "diffusion/denoiser.h"
#include "diffusion/generator.h"
#include "diffusion/schedule.h"
#include "diffusion/timestep_schedule.h"
#include "diffusion/transition.h"
#include "util/rng.h"

namespace cp::diffusion {

struct SampleConfig {
  int rows = 128;
  int cols = 128;
  int condition = 0;
  /// Number of visited timesteps (2..K); 0 means the full K-step chain.
  int sample_steps = 0;
  /// How the visited subset is placed (timestep_schedule.h). The default
  /// reproduces the historical noise-uniform spacing bit-for-bit; kSearched
  /// resolves against the sampler's registered searched list.
  ScheduleKind schedule_kind = ScheduleKind::kNoiseUniform;
  /// Extra low-noise refinement passes after the main chain: the sample is
  /// re-noised to a small timestep and reverse-diffused again. Cheap (a few
  /// denoiser calls each) and very effective at removing speckle and
  /// straightening polygon edges; 0 disables.
  int polish_rounds = 2;
  /// Noise level the polish passes restart from.
  int polish_k = 8;
};

class DiffusionSampler : public TopologyGenerator {
 public:
  DiffusionSampler(const NoiseSchedule& schedule, const Denoiser& denoiser)
      : schedule_(&schedule), denoiser_(&denoiser) {}

  /// Mean-matching guidance: when the denoiser reports its training
  /// density, each reverse step applies a uniform logit shift to the p0
  /// predictions so their mean equals that density. A weak local estimator
  /// is systematically under-confident off the data manifold, which makes
  /// the unguided chain drift toward the empty pattern; the shift corrects
  /// the first moment while leaving the spatial ranking of predictions
  /// untouched. Disable for ablation.
  ///
  /// Cost: the shift's bisection and the scans' shifted kernel evaluate
  /// their log/exp once per distinct p0 value of a call, not once per pixel.
  /// A tabular denoiser returns few distinct values per grid, so guidance
  /// costs little there; a neural denoiser's values are nearly all distinct.
  bool guidance() const { return guidance_; }
  void set_guidance(bool guidance) { guidance_ = guidance; }

  /// Logit shift lambda such that mean(sigmoid(logit(p0) + lambda)) over
  /// the predictions for `xk` at `k_from` matches the denoiser's prior
  /// density; 0 when guidance is off or the density unknown. This is the
  /// shift reverse_step applies.
  double guidance_shift(const squish::Topology& xk, int k_from, int condition) const;

  /// Descending timestep list {K, ..., 1, 0} with ~`count` visited noisy
  /// steps, spaced uniformly in cumulative flip probability (count 0 or
  /// >= K yields the full list).
  std::vector<int> make_timesteps(int count) const;

  /// Same, but starting from an intermediate noise level `k_start` — used by
  /// the cascade's refinement stage and by polish passes.
  std::vector<int> make_timesteps_from(int k_start, int count) const;

  /// Kind-aware variants (timestep_schedule.h). kSearched uses the list
  /// registered via set_searched_timesteps, restricted to levels <= k_start;
  /// with no registered list it falls back to noise-uniform (counted under
  /// `sampler/searched_fallback`). The degenerate budget (count <= 0 or
  /// >= k_start) yields the full chain for every kind.
  std::vector<int> make_timesteps(int count, ScheduleKind kind) const;
  std::vector<int> make_timesteps_from(int k_start, int count, ScheduleKind kind) const;

  /// Register the offline-searched schedule consulted by kSearched (see
  /// search_timesteps). Validates the list; setup-time mutation like
  /// set_guidance, not safe concurrently with sampling.
  void set_searched_timesteps(std::vector<int> steps);
  const std::vector<int>& searched_timesteps() const { return searched_; }

  /// One reverse jump x_{k_from} -> x_{k_to} (k_to < k_from), sampled
  /// sequentially (Gibbs-style): the denoiser is re-queried pixel by pixel
  /// in a serpentine scan as the grid is updated, so already-committed
  /// neighbours inform later pixels — this is what lets a local-receptive-
  /// field denoiser nucleate coherent structure (see DESIGN.md S2).
  squish::Topology reverse_step(const squish::Topology& xk, int k_from, int k_to, int condition,
                                util::Rng& rng) const;

  /// Draw one topology.
  squish::Topology sample(const SampleConfig& config, util::Rng& rng) const override;

  /// Masked modification (Equation 12); implemented in modification.cpp.
  squish::Topology modify(const squish::Topology& known, const squish::Topology& keep_mask,
                          const ModifyConfig& config, util::Rng& rng) const override;

  const char* name() const override { return "DiffusionSampler"; }

  /// Sampling mutates no sampler state; safe to fan out iff the denoiser's
  /// inference is.
  bool thread_safe() const override { return denoiser_->thread_safe_inference(); }

  /// Run the reverse chain from a given noisy state at timestep
  /// `timesteps.front()` down the provided descending list (must end at 0).
  squish::Topology sample_from(squish::Topology x, const std::vector<int>& timesteps,
                               int condition, util::Rng& rng) const;

  /// One polish pass: forward-noise `x0` to `polish_k`, reverse back to 0.
  squish::Topology polish(squish::Topology x0, int polish_k, int condition,
                          util::Rng& rng) const;

  /// Deterministic MAP sweep: one sequential pass that sets every pixel to
  /// the argmax of its reverse distribution p(x_0 | x viewed at level k),
  /// with an optional keep mask (empty = none). Injects no sampling noise,
  /// so it removes speckle and upsampling artifacts without jittering
  /// polygon edges — the cascade's fine stage uses it.
  squish::Topology map_polish(squish::Topology x, int k, int condition,
                              const squish::Topology& keep_mask = squish::Topology()) const;

  const NoiseSchedule& schedule() const { return *schedule_; }
  const Denoiser& denoiser() const { return *denoiser_; }

 private:
  const NoiseSchedule* schedule_;
  const Denoiser* denoiser_;
  bool guidance_ = true;
  std::vector<int> searched_;  // kSearched visited list; empty = unset
};

}  // namespace cp::diffusion
