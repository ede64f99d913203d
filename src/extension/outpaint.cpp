#include "extension/outpaint.h"

#include <stdexcept>
#include <vector>

#include "extension/tile_schedule.h"

namespace cp::extension {

namespace {

/// Window origin positions along one axis: 0, S, 2S, ..., with the last
/// clamped so the final window ends exactly at the target edge.
std::vector<int> axis_positions(int target, int window, int stride) {
  std::vector<int> pos{0};
  while (pos.back() + window < target) {
    pos.push_back(std::min(pos.back() + stride, target - window));
  }
  return pos;
}

}  // namespace

long long expected_samples_outpaint(int target_w, int target_h, int window, int stride) {
  auto per_axis = [&](int target) {
    return (target - window + stride - 1) / stride + 1;
  };
  return static_cast<long long>(per_axis(target_w)) * per_axis(target_h);
}

ExtensionResult extend_outpaint(const diffusion::TopologyGenerator& generator,
                                const squish::Topology& seed, int rows, int cols,
                                const ExtensionConfig& config, util::Rng& rng,
                                util::ThreadPool* pool) {
  const int L = config.window;
  if (rows < L || cols < L) throw std::invalid_argument("extend_outpaint: target smaller than window");
  if (config.stride < 1 || config.stride > L) {
    throw std::invalid_argument("extend_outpaint: stride must be in [1, window]");
  }
  if (!seed.empty() && (seed.rows() != L || seed.cols() != L)) {
    throw std::invalid_argument("extend_outpaint: seed must be window-sized");
  }

  ExtensionResult result;
  result.topology = squish::Topology(rows, cols);

  // The job list is pure geometry (keep masks depend only on which windows
  // precede which), so it is built serially upfront and executed by the
  // wave scheduler. Job 0 is the starting tile unless a seed is given.
  std::vector<TileJob> jobs;
  squish::Topology known(rows, cols);  // 1 = generated by an earlier job
  if (seed.empty()) {
    jobs.push_back(TileJob{0, 0, squish::Topology()});  // fresh sample
  } else {
    result.topology.paste(seed, 0, 0);
  }
  known.paste(squish::Topology(L, L, 1), 0, 0);

  for (int r0 : axis_positions(rows, L, config.stride)) {
    for (int c0 : axis_positions(cols, L, config.stride)) {
      // Skip windows that are already fully known (the seed window).
      squish::Topology keep = known.window(r0, c0, r0 + L, c0 + L);
      if (keep.popcount() == keep.size()) continue;
      jobs.push_back(TileJob{r0, c0, std::move(keep)});
      known.paste(squish::Topology(L, L, 1), r0, c0);
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
