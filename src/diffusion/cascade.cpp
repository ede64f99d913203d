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
                                        const squish::Topology& keep_mask, int condition) const {
  const obs::Span span = obs::trace_scope("refine");
  squish::Topology x = coarse_up;
  // Correct upsampling artifacts and speckle without re-jittering edges.
  // Kept cells are pinned by the mask; as the final safeguard the kept
  // region is restored exactly.
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
  coarse_cfg.polish_rounds = 0;  // MAP consolidation below replaces it
  squish::Topology coarse = coarse_.sample(coarse_cfg, rng);
  for (int round = 0; round < config_.polish_rounds; ++round) {
    coarse = coarse_.map_polish(std::move(coarse), config_.polish_k, config.condition);
  }
  const squish::Topology up = squish::upsample_nearest(coarse, config_.factor);
  return refine(up, squish::Topology(), squish::Topology(), config.condition);
}

std::vector<int> CascadeSampler::coarse_timesteps() const {
  return coarse_.make_timesteps(config_.coarse_steps);
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
  // The cascade's step budget is its own tuned knob: the request's budget
  // and placement are ignored here.
  ModifyConfig coarse_cfg = config;
  coarse_cfg.sample_steps = config_.coarse_steps;
  coarse_cfg.schedule_kind = ScheduleKind::kNoiseUniform;
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
  return refine(blended, known, keep_mask, config.condition);
}

}  // namespace cp::diffusion
