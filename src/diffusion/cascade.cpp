#include "diffusion/cascade.h"

#include <stdexcept>

#include "obs/registry.h"

namespace cp::diffusion {

CascadeSampler::CascadeSampler(const NoiseSchedule& schedule, const Denoiser& coarse,
                               const Denoiser& fine, const CascadeConfig& config)
    : coarse_(schedule, coarse), fine_(schedule, fine), config_(config) {
  if (config.factor < 1) throw std::invalid_argument("CascadeSampler: bad factor");
}

squish::Topology CascadeSampler::refine(const squish::Topology& coarse_up,
                                        const squish::Topology& known,
                                        const squish::Topology& keep_mask, int condition,
                                        int steps, util::Rng& rng) const {
  const obs::Span span = obs::trace_scope("refine");
  squish::Topology x = coarse_up;

  if (config_.refine_flip > 0.0) {
    // Optional stochastic refinement (ablation mode): restart the masked
    // reverse chain from an intermediate noise level.
    const NoiseSchedule& schedule = fine_.schedule();
    const int k_mid = std::max(1, schedule.step_for_flip(config_.refine_flip));
    squish::Topology init = forward_noise(x, schedule, k_mid, rng);
    ModifyConfig mc;
    mc.condition = condition;
    mc.sample_steps = steps;
    mc.schedule_kind = config_.schedule_kind;
    if (keep_mask.empty()) {
      squish::Topology no_keep(x.rows(), x.cols(), 0);
      x = modify_from(fine_, x, no_keep, std::move(init), k_mid, mc, rng);
    } else {
      x = modify_from(fine_, known, keep_mask, std::move(init), k_mid, mc, rng);
    }
  }

  // Deterministic MAP polish: correct upsampling artifacts and speckle
  // without re-jittering edges. Kept cells are pinned by the mask; as the
  // final safeguard the kept region is restored exactly.
  for (int round = 0; round < config_.polish_rounds; ++round) {
    x = fine_.map_polish(std::move(x), config_.polish_k, condition, keep_mask);
  }
  if (!keep_mask.empty()) x.assign_where(keep_mask, known);
  return x;
}

squish::Topology CascadeSampler::sample(const SampleConfig& config, util::Rng& rng) const {
  if (config.rows < 1 || config.cols < 1) {
    throw std::invalid_argument("CascadeSampler::sample: bad dims");
  }
  if (config.rows % config_.factor != 0 || config.cols % config_.factor != 0) {
    // Round up to the cascade grid and crop — callers may ask for any size.
    SampleConfig padded = config;
    padded.rows = (config.rows + config_.factor - 1) / config_.factor * config_.factor;
    padded.cols = (config.cols + config_.factor - 1) / config_.factor * config_.factor;
    return sample(padded, rng).window(0, 0, config.rows, config.cols);
  }
  const obs::Span span = obs::trace_scope("sampler/cascade_sample");
  obs::count("sampler/cascade_samples");
  SampleConfig coarse_cfg;
  coarse_cfg.rows = config.rows / config_.factor;
  coarse_cfg.cols = config.cols / config_.factor;
  coarse_cfg.condition = config.condition;
  coarse_cfg.sample_steps = config_.coarse_steps;
  coarse_cfg.schedule_kind = config_.schedule_kind;
  coarse_cfg.polish_rounds = 0;  // MAP consolidation below replaces it
  squish::Topology coarse = coarse_.sample(coarse_cfg, rng);
  for (int round = 0; round < config_.polish_rounds; ++round) {
    coarse = coarse_.map_polish(std::move(coarse), config_.polish_k, config.condition);
  }
  const squish::Topology up = squish::upsample_nearest(coarse, config_.factor);
  return refine(up, squish::Topology(), squish::Topology(), config.condition,
                config_.refine_steps, rng);
}

void CascadeSampler::set_searched_timesteps(std::vector<int> coarse, std::vector<int> fine) {
  coarse_.set_searched_timesteps(std::move(coarse));
  fine_.set_searched_timesteps(std::move(fine));
}

std::vector<int> CascadeSampler::coarse_timesteps() const {
  return coarse_.make_timesteps(config_.coarse_steps, config_.schedule_kind);
}

int CascadeSampler::refine_start_level() const {
  if (config_.refine_flip <= 0.0) return 0;
  return std::max(1, fine_.schedule().step_for_flip(config_.refine_flip));
}

std::vector<int> CascadeSampler::refine_timesteps() const {
  const int k_mid = refine_start_level();
  if (k_mid == 0) return {};
  return fine_.make_timesteps_from(k_mid, config_.refine_steps, config_.schedule_kind);
}

squish::Topology CascadeSampler::modify(const squish::Topology& known,
                                        const squish::Topology& keep_mask,
                                        const ModifyConfig& config, util::Rng& rng) const {
  if (known.rows() % config_.factor != 0 || known.cols() % config_.factor != 0) {
    // Fall back to single-resolution modification for odd sizes.
    return fine_.modify(known, keep_mask, config, rng);
  }
  // Coarse stage: masked generation at low resolution. The coarse keep mask
  // marks a cell as kept only if its whole block is kept, so the coarse
  // stage is free wherever any fine cell needs regeneration.
  const squish::Topology coarse_known = squish::downsample_majority(known, config_.factor);
  squish::Topology coarse_keep(coarse_known.rows(), coarse_known.cols(), 0);
  for (int r = 0; r < coarse_keep.rows(); ++r) {
    for (int c = 0; c < coarse_keep.cols(); ++c) {
      bool all_kept = true;
      for (int dr = 0; dr < config_.factor && all_kept; ++dr) {
        for (int dc = 0; dc < config_.factor && all_kept; ++dc) {
          all_kept = keep_mask.at(r * config_.factor + dr, c * config_.factor + dc) != 0;
        }
      }
      coarse_keep.set(r, c, all_kept ? 1 : 0);
    }
  }
  ModifyConfig coarse_cfg = config;
  coarse_cfg.sample_steps = config_.coarse_steps;
  coarse_cfg.schedule_kind = config_.schedule_kind;
  squish::Topology coarse = coarse_.modify(coarse_known, coarse_keep, coarse_cfg, rng);
  for (int round = 0; round < config_.polish_rounds / 2; ++round) {
    coarse = coarse_.map_polish(std::move(coarse), config_.polish_k, config.condition,
                                coarse_keep);
  }
  coarse.assign_where(coarse_keep, coarse_known);
  const squish::Topology up = squish::upsample_nearest(coarse, config_.factor);

  // Fine stage: refine the upsampled result under the exact mask. Blend the
  // upsampled coarse guess into the regenerated region of the init state.
  squish::Topology blended = up;
  blended.assign_where(keep_mask, known);
  return refine(blended, known, keep_mask, config.condition,
                std::max(config.sample_steps, config_.refine_steps), rng);
}

}  // namespace cp::diffusion
