#pragma once
// Cascaded (coarse-to-fine) conditional sampling.
//
// A local-receptive-field denoiser cannot nucleate global structure from
// pure noise: at high noise its posterior is uninformative, so a single-
// resolution reverse chain drifts off the data manifold (part of
// substitution S2; the paper's U-Net sees the whole window and does not have
// this problem). The standard remedy is a cascade, as in cascaded diffusion
// models: (1) run the full reverse chain at 1/factor resolution, where
// features span only a few cells and the local posterior *is* informative;
// (2) upsample the coarse topology; (3) run deterministic MAP polish sweeps
// at full resolution, which keep the global structure and remove upsampling
// artifacts and speckle without re-jittering polygon edges. Diversity comes
// from the coarse stage; both stages use the noise-uniform placement.
//
// CascadeSampler implements the TopologyGenerator interface, so extension,
// the agent tools and the benches are agnostic to which sampler they drive
// (bench/ablation_sampler compares them).

#include "diffusion/modification.h"
#include "diffusion/sampler.h"

namespace cp::diffusion {

struct CascadeConfig {
  int factor = 4;           // resolution ratio between stages
  int coarse_steps = 24;    // visited coarse-stage timesteps (noise-uniform)
  int polish_rounds = 6;    // deterministic MAP polish sweeps (fine stage)
  int polish_k = 16;        // noise level the MAP polish assumes
};

class CascadeSampler : public TopologyGenerator {
 public:
  /// `coarse` was trained on factor-downsampled topologies, `fine` on
  /// full-resolution ones; both share the schedule.
  CascadeSampler(const NoiseSchedule& schedule, const Denoiser& coarse, const Denoiser& fine,
                 const CascadeConfig& config);

  squish::Topology sample(const SampleConfig& config, util::Rng& rng) const override;

  /// Cascade-aware masked modification: the coarse stage runs Eq. (12) with
  /// the downsampled mask, the fine stage refines with the exact mask.
  squish::Topology modify(const squish::Topology& known, const squish::Topology& keep_mask,
                          const ModifyConfig& config, util::Rng& rng) const override;

  const char* name() const override { return "CascadeSampler"; }

  bool thread_safe() const override {
    return coarse_.thread_safe() && fine_.thread_safe();
  }

  const DiffusionSampler& coarse_sampler() const { return coarse_; }
  const DiffusionSampler& fine_sampler() const { return fine_; }
  const CascadeConfig& cascade_config() const { return config_; }

  /// The exact visited-step list the coarse chain walks from K. Exposed so
  /// tests/golden can pin the visited-step logic without sampling.
  std::vector<int> coarse_timesteps() const;

 private:
  /// Fine-stage refinement of an upsampled coarse topology by deterministic
  /// MAP polish sweeps, with an optional keep mask (empty topology = no
  /// mask).
  squish::Topology refine(const squish::Topology& coarse_up, const squish::Topology& known,
                          const squish::Topology& keep_mask, int condition) const;

  DiffusionSampler coarse_;
  DiffusionSampler fine_;
  CascadeConfig config_;
};

}  // namespace cp::diffusion
