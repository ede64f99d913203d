#pragma once
// Out-painting pattern extension (Figure 7, right): grow a pattern by
// sliding the model window across the target canvas with stride S; each
// window keeps the already-generated overlap region and generates the new
// border. The number of model calls follows the paper's formula
//     N_out = (ceil((W-L)/S)+1) * (ceil((H-L)/S)+1).

#include "diffusion/modification.h"
#include "util/thread_pool.h"

namespace cp::extension {

struct ExtensionConfig {
  int window = 128;  // L: the model's native size
  int stride = 64;   // S: out-painting stride (overlap = L - S)
  int condition = 0;
  int sample_steps = 16;
  /// Visited-subset placement for every window sample and seam repair
  /// (timestep_schedule.h) — fast mode covers extension end to end.
  diffusion::ScheduleKind schedule_kind = diffusion::ScheduleKind::kNoiseUniform;
  int resample_rounds = 1;
};

struct ExtensionResult {
  squish::Topology topology;
  int model_calls = 0;
  /// Number of scheduling waves the window sweep decomposed into (see
  /// extension/tile_schedule.h); model_calls / waves is the mean fan-out.
  int waves = 0;
};

/// Paper formula for the number of window samples.
long long expected_samples_outpaint(int target_w, int target_h, int window, int stride);

/// Extend to rows x cols (each >= window). If `seed` is non-empty it is
/// placed at the top-left as the starting window content; otherwise a fresh
/// window is sampled. With a `pool`, windows whose regions are independent
/// are denoised concurrently (per-window fork(i) RNG streams keep the
/// result bit-identical for any thread count).
ExtensionResult extend_outpaint(const diffusion::TopologyGenerator& generator,
                                const squish::Topology& seed, int rows, int cols,
                                const ExtensionConfig& config, util::Rng& rng,
                                util::ThreadPool* pool = nullptr);

}  // namespace cp::extension
