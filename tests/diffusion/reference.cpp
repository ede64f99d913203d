#include "tests/diffusion/reference.h"

#include "diffusion/neighborhood.h"

namespace cp::diffusion {

squish::ByteTopology reference_forward_noise(const squish::ByteTopology& x0,
                                             const NoiseSchedule& schedule, int k,
                                             util::Rng& rng) {
  const double flip = schedule.cumulative_flip(k);
  squish::ByteTopology xk = x0;
  for (int r = 0; r < xk.rows(); ++r) {
    for (int c = 0; c < xk.cols(); ++c) {
      if (rng.bernoulli(flip)) xk.set(r, c, static_cast<std::uint8_t>(1 - xk.at(r, c)));
    }
  }
  return xk;
}

namespace {
// The tabular denoiser's period-folding reflect-101 mirror.
inline int fold_mirror(int i, int n) {
  if (i >= 0 && i < n) return i;
  if (n == 1) return 0;
  const int period = 2 * n - 2;
  i = ((i % period) + period) % period;
  return i < n ? i : period - i;
}
}  // namespace

int reference_neighborhood_index(const squish::ByteTopology& t, int r, int c) {
  int index = 0;
  for (int i = 0; i < neighborhood::kCount; ++i) {
    const int rr = fold_mirror(r + neighborhood::kOffsets[i][0], t.rows());
    const int cc = fold_mirror(c + neighborhood::kOffsets[i][1], t.cols());
    index |= (t.at(rr, cc) != 0) << i;
  }
  return index;
}

std::vector<std::pair<int, int>> reference_row_runs(const squish::ByteTopology& t, int r,
                                                    std::uint8_t value) {
  std::vector<std::pair<int, int>> runs;
  int c = 0;
  while (c < t.cols()) {
    if (t.at(r, c) != value) {
      ++c;
      continue;
    }
    const int start = c;
    while (c < t.cols() && t.at(r, c) == value) ++c;
    runs.emplace_back(start, c);
  }
  return runs;
}

}  // namespace cp::diffusion
