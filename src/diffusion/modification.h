#pragma once
// Masked pattern modification (Equation (12); RePaint-style conditioning).
//
// Given an existing topology T0_known, a keep-mask M (1 = keep the pixel)
// and a condition c matching the pattern's style, each reverse step replaces
// the kept region with a forward-noised version of the known topology while
// the model re-generates the masked-out region:
//     T_{k-1} = M ⊙ T^known_{k-1} + (1 - M) ⊙ T^unknown_{k-1}.
// This one primitive powers failed-region repair (agent recovery) and both
// pattern-extension algorithms (extension/ builds the masks).

#include "diffusion/sampler.h"

namespace cp::diffusion {

struct ModifyConfig {
  int condition = 0;
  int sample_steps = 0;  // 0 = full chain
  /// Visited-subset placement for the masked reverse chain; in-painting and
  /// out-painting inherit it via extension::ExtensionConfig, so the fast-
  /// sampling mode covers modification as well as free generation.
  ScheduleKind schedule_kind = ScheduleKind::kNoiseUniform;
  /// RePaint-style resampling: how many times each reverse jump is re-done
  /// (re-noising in between) to harmonise kept and generated regions.
  /// 1 = plain single pass.
  int resample_rounds = 1;
};

/// Regenerate the zero-mask region of `known`. `keep_mask` has the same
/// dims; cells with value 1 are preserved (up to the stochastic forward /
/// reverse consistency — the k=0 output restores them exactly).
squish::Topology modify(const DiffusionSampler& sampler, const squish::Topology& known,
                        const squish::Topology& keep_mask, const ModifyConfig& config,
                        util::Rng& rng);

/// Generalised form: run the masked reverse chain starting from the given
/// state `init` at timestep `k_start` instead of pure noise at K. The
/// cascade's refinement stage uses this to keep coarse structure while
/// re-synthesising fine detail.
squish::Topology modify_from(const DiffusionSampler& sampler, const squish::Topology& known,
                             const squish::Topology& keep_mask, squish::Topology init,
                             int k_start, const ModifyConfig& config, util::Rng& rng);

}  // namespace cp::diffusion
