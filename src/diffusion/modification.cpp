#include "diffusion/modification.h"

#include <stdexcept>

namespace cp::diffusion {

squish::Topology modify_from(const DiffusionSampler& sampler, const squish::Topology& known,
                             const squish::Topology& keep_mask, squish::Topology init,
                             int k_start, const ModifyConfig& config, util::Rng& rng) {
  if (known.rows() != keep_mask.rows() || known.cols() != keep_mask.cols() ||
      known.rows() != init.rows() || known.cols() != init.cols()) {
    throw std::invalid_argument("modify_from: dimension mismatch");
  }
  const NoiseSchedule& schedule = sampler.schedule();
  const std::vector<int> steps =
      sampler.make_timesteps_from(k_start, config.sample_steps, config.schedule_kind);

  squish::Topology x = std::move(init);
  const int rounds = std::max(1, config.resample_rounds);
  for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
    const int k_from = steps[i];
    const int k_to = steps[i + 1];
    for (int round = 0; round < rounds; ++round) {
      squish::Topology x_unknown = sampler.reverse_step(x, k_from, k_to, config.condition, rng);
      // Equation (12): forward-noise the known pattern to level k_to and
      // overwrite the kept region.
      x_unknown.assign_where(keep_mask, forward_noise(known, schedule, k_to, rng));
      x = std::move(x_unknown);
      if (round + 1 < rounds) {
        // Jump back up to k_from by forward-noising through the composed
        // channel, then redo the reverse step (RePaint harmonisation).
        const double flip = schedule.flip_between(k_to, k_from);
        for (int r = 0; r < x.rows(); ++r) {
          for (int c = 0; c < x.cols(); ++c) {
            if (rng.bernoulli(flip)) x.set(r, c, static_cast<std::uint8_t>(1 - x.at(r, c)));
          }
        }
      }
    }
  }
  // k = 0: restore the kept region exactly.
  x.assign_where(keep_mask, known);
  return x;
}

squish::Topology modify(const DiffusionSampler& sampler, const squish::Topology& known,
                        const squish::Topology& keep_mask, const ModifyConfig& config,
                        util::Rng& rng) {
  // Start from pure noise (at k = K the state is iid fair coin flips).
  squish::Topology init(known.rows(), known.cols());
  for (int r = 0; r < init.rows(); ++r) {
    for (int c = 0; c < init.cols(); ++c) init.set(r, c, rng.bernoulli(0.5) ? 1 : 0);
  }
  return modify_from(sampler, known, keep_mask, std::move(init), sampler.schedule().steps(),
                     config, rng);
}

squish::Topology DiffusionSampler::modify(const squish::Topology& known,
                                          const squish::Topology& keep_mask,
                                          const ModifyConfig& config, util::Rng& rng) const {
  return diffusion::modify(*this, known, keep_mask, config, rng);
}

}  // namespace cp::diffusion
