#include "extension/inpaint.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "extension/masks.h"
#include "extension/tile_schedule.h"

namespace cp::extension {

namespace {

/// Tile origins: multiples of L with the last clamped inside the target.
std::vector<int> tile_positions(int target, int window) {
  std::vector<int> pos{0};
  while (pos.back() + window < target) {
    pos.push_back(std::min(pos.back() + window, target - window));
  }
  return pos;
}

}  // namespace

long long expected_samples_inpaint(int target_w, int target_h, int window) {
  const long long mw = (target_w + window - 1) / window;
  const long long mh = (target_h + window - 1) / window;
  return (2 * mw - 1) * (2 * mh - 1);
}

ExtensionResult extend_inpaint(const diffusion::TopologyGenerator& generator,
                               const squish::Topology& seed, int rows, int cols,
                               const ExtensionConfig& config, util::Rng& rng,
                               util::ThreadPool* pool) {
  const int L = config.window;
  if (rows < L || cols < L) throw std::invalid_argument("extend_inpaint: target smaller than window");
  if (!seed.empty() && (seed.rows() != L || seed.cols() != L)) {
    throw std::invalid_argument("extend_inpaint: seed must be window-sized");
  }

  ExtensionResult result;
  result.topology = squish::Topology(rows, cols);

  // Every phase is a list of window jobs whose keep masks are pure
  // geometry, so the whole sweep is planned upfront and handed to the wave
  // scheduler: phase-1 tiles are pairwise disjoint (one wave, full
  // fan-out), seam and corner repairs overlap their neighbours and land in
  // later waves automatically.
  std::vector<TileJob> jobs;

  // Phase 1: independent tiles (the concatenation).
  const std::vector<int> rpos = tile_positions(rows, L);
  const std::vector<int> cpos = tile_positions(cols, L);
  for (std::size_t i = 0; i < rpos.size(); ++i) {
    for (std::size_t j = 0; j < cpos.size(); ++j) {
      if (i == 0 && j == 0 && !seed.empty()) {
        result.topology.paste(seed, 0, 0);
        continue;
      }
      jobs.push_back(TileJob{rpos[i], cpos[j], squish::Topology()});  // fresh sample
    }
  }

  const int band = L / 2;
  // Phase 2: vertical seams (windows straddling tile column boundaries).
  // Interior boundaries are at the *start* of every tile except the first.
  for (std::size_t j = 1; j < cpos.size(); ++j) {
    const int boundary = cpos[j];
    const int c0 = std::clamp(boundary - L / 2, 0, cols - L);
    for (int r0 : rpos) {
      jobs.push_back(TileJob{
          r0, c0,
          keep_except_col_band(L, L, boundary - c0 - band / 2, boundary - c0 + band / 2)});
    }
  }
  // Phase 3: horizontal seams.
  for (std::size_t i = 1; i < rpos.size(); ++i) {
    const int boundary = rpos[i];
    const int r0 = std::clamp(boundary - L / 2, 0, rows - L);
    for (int c0 : cpos) {
      jobs.push_back(TileJob{
          r0, c0,
          keep_except_row_band(L, L, boundary - r0 - band / 2, boundary - r0 + band / 2)});
    }
  }
  // Phase 4: corners (both boundaries cross).
  for (std::size_t i = 1; i < rpos.size(); ++i) {
    for (std::size_t j = 1; j < cpos.size(); ++j) {
      const int rb = rpos[i];
      const int cb = cpos[j];
      const int r0 = std::clamp(rb - L / 2, 0, rows - L);
      const int c0 = std::clamp(cb - L / 2, 0, cols - L);
      jobs.push_back(TileJob{r0, c0,
                             keep_except_box(L, L, rb - r0 - band / 2, cb - c0 - band / 2,
                                             rb - r0 + band / 2, cb - c0 + band / 2)});
    }
  }

  diffusion::SampleConfig sc;
  sc.rows = L;
  sc.cols = L;
  sc.condition = config.condition;
  sc.sample_steps = config.sample_steps;
  sc.schedule_kind = config.schedule_kind;
  diffusion::ModifyConfig mc;
  mc.condition = config.condition;
  mc.sample_steps = config.sample_steps;
  mc.schedule_kind = config.schedule_kind;
  mc.resample_rounds = config.resample_rounds;

  result.model_calls = run_tile_jobs(generator, result.topology, jobs, L, sc, mc, rng.fork(),
                                     pool, &result.waves);
  return result;
}

}  // namespace cp::extension
