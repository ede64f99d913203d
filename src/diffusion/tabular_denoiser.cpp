#include "diffusion/tabular_denoiser.h"
#include <algorithm>
#include <cmath>

#include <istream>
#include <ostream>
#include <stdexcept>

#include "diffusion/neighborhood.h"
#include "diffusion/transition.h"

namespace cp::diffusion {

namespace {
// Neighbourhood offsets (dr, dc); the canonical table lives in
// diffusion/neighborhood.h and defines the bit layout of the table index.
constexpr auto& kOffsets = neighborhood::kOffsets;
static_assert(neighborhood::kCount == TabularDenoiser::kNeighbors);

using neighborhood::mirror;
}  // namespace

TabularDenoiser::TabularDenoiser(const NoiseSchedule& schedule, const TabularConfig& config)
    : schedule_(&schedule), config_(config) {
  if (config.conditions < 1 || config.time_buckets < 1) {
    throw std::invalid_argument("TabularDenoiser: bad config");
  }
  const std::size_t n = static_cast<std::size_t>(config.conditions) * config.time_buckets *
                        static_cast<std::size_t>(kTableSize);
  ones_.assign(n, 0);
  totals_.assign(n, 0);
  density_num_.assign(static_cast<std::size_t>(config.conditions), 0.0);
  density_den_.assign(static_cast<std::size_t>(config.conditions), 0.0);
}

int TabularDenoiser::neighborhood_index(const squish::Topology& t, int r, int c) {
  int index = 0;
  for (int i = 0; i < kNeighbors; ++i) {
    const int rr = mirror(r + kOffsets[i][0], t.rows());
    const int cc = mirror(c + kOffsets[i][1], t.cols());
    index |= (t.at(rr, cc) != 0) << i;
  }
  return index;
}

void TabularDenoiser::neighborhood_indices_row(const squish::Topology& t, int r,
                                               int* indices) {
  const int rows = t.rows();
  const int cols = t.cols();
  const bool r_interior = r >= neighborhood::kMargin && r < rows - neighborhood::kMargin;
  if (!r_interior || cols <= 2 * neighborhood::kMargin) {
    for (int c = 0; c < cols; ++c) indices[c] = neighborhood_index(t, r, c);
    return;
  }
  // Interior columns word-at-a-time: 17 funnel-shifted planes + one 64x64 bit
  // transpose yield the table index of every lane at once.
  for (int wi = 0; wi < t.words_per_row(); ++wi) {
    const int base = wi * 64;
    const int c_lo = std::max(base, neighborhood::kMargin);
    const int c_hi = std::min(base + 64, cols - neighborhood::kMargin);
    if (c_lo >= c_hi) continue;
    std::uint64_t idx[64];
    neighborhood::gather_indices(t, r, wi, idx);
    for (int c = c_lo; c < c_hi; ++c) indices[c] = static_cast<int>(idx[c - base]);
  }
  for (int c = 0; c < neighborhood::kMargin; ++c) indices[c] = neighborhood_index(t, r, c);
  for (int c = cols - neighborhood::kMargin; c < cols; ++c) {
    indices[c] = neighborhood_index(t, r, c);
  }
}

int TabularDenoiser::bucket_of(int k) const {
  // Buckets are uniform in *cumulative flip probability*, matching the
  // sampler's noise-uniform stride: the informative timesteps cluster where
  // the flip probability is still below saturation.
  const double top = schedule_->cumulative_flip(schedule_->steps());
  if (top <= 0.0) return 0;
  const double frac = schedule_->cumulative_flip(std::clamp(k, 0, schedule_->steps())) / top;
  const int b = static_cast<int>(frac * config_.time_buckets);
  return b < 0 ? 0 : (b >= config_.time_buckets ? config_.time_buckets - 1 : b);
}

std::size_t TabularDenoiser::cell(int condition, int bucket, int index) const {
  return (static_cast<std::size_t>(condition) * config_.time_buckets + bucket) *
             static_cast<std::size_t>(kTableSize) +
         static_cast<std::size_t>(index);
}

void TabularDenoiser::fit(const std::vector<squish::Topology>& topologies, int condition,
                          util::Rng& rng) {
  if (condition < 0 || condition >= config_.conditions) {
    throw std::out_of_range("TabularDenoiser::fit: bad condition");
  }
  for (const squish::Topology& x0 : topologies) {
    density_num_[static_cast<std::size_t>(condition)] += static_cast<double>(x0.popcount());
    density_den_[static_cast<std::size_t>(condition)] += static_cast<double>(x0.size());
    const double top = schedule_->cumulative_flip(schedule_->steps());
    for (int bucket = 0; bucket < config_.time_buckets; ++bucket) {
      // Flip-uniform bucket boundaries, matching bucket_of().
      const int k_lo = std::max(
          1, schedule_->step_for_flip(top * bucket / config_.time_buckets));
      int k_hi = bucket + 1 == config_.time_buckets
                     ? schedule_->steps()
                     : schedule_->step_for_flip(top * (bucket + 1) / config_.time_buckets) - 1;
      k_hi = std::max(k_lo, k_hi);
      for (int draw = 0; draw < config_.draws_per_bucket; ++draw) {
        const int k = rng.uniform_int(k_lo, std::max(k_lo, k_hi));
        const squish::Topology xk = forward_noise(x0, *schedule_, k, rng);
        std::vector<int> indices(static_cast<std::size_t>(x0.cols()));
        for (int r = 0; r < x0.rows(); ++r) {
          neighborhood_indices_row(xk, r, indices.data());
          for (int c = 0; c < x0.cols(); ++c) {
            const std::size_t cc = cell(condition, bucket, indices[static_cast<std::size_t>(c)]);
            ones_[cc] += x0.at(r, c);
            ++totals_[cc];
          }
        }
      }
    }
  }
}

double TabularDenoiser::class_density(int condition) const {
  const double den = density_den_[static_cast<std::size_t>(condition)];
  return den <= 0.0 ? 0.5 : density_num_[static_cast<std::size_t>(condition)] / den;
}

void TabularDenoiser::predict_x0(const squish::Topology& xk, int k, int condition,
                                 ProbGrid& p0) const {
  if (condition < 0 || condition >= config_.conditions) {
    throw std::out_of_range("TabularDenoiser::predict_x0: bad condition");
  }
  const int bucket = bucket_of(k);
  const double prior = class_density(condition);
  const double alpha = config_.smoothing;
  p0.resize(xk.size());
  std::size_t out = 0;
  std::vector<int> indices(static_cast<std::size_t>(xk.cols()));
  for (int r = 0; r < xk.rows(); ++r) {
    neighborhood_indices_row(xk, r, indices.data());
    for (int c = 0; c < xk.cols(); ++c) {
      const std::size_t cc = cell(condition, bucket, indices[static_cast<std::size_t>(c)]);
      const double n1 = static_cast<double>(ones_[cc]);
      const double n = static_cast<double>(totals_[cc]);
      p0[out++] = static_cast<float>((n1 + alpha * prior) / (n + alpha));
    }
  }
}

float TabularDenoiser::predict_x0_pixel(const squish::Topology& xk, int r, int c, int k,
                                        int condition) const {
  const std::size_t cc = cell(condition, bucket_of(k), neighborhood_index(xk, r, c));
  const double prior = class_density(condition);
  const double n1 = static_cast<double>(ones_[cc]);
  const double n = static_cast<double>(totals_[cc]);
  return static_cast<float>((n1 + config_.smoothing * prior) / (n + config_.smoothing));
}

void TabularDenoiser::save(std::ostream& os) const {
  const std::uint32_t magic = 0x43505444;  // "CPTD"
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  const std::int32_t conds = config_.conditions, buckets = config_.time_buckets;
  os.write(reinterpret_cast<const char*>(&conds), sizeof(conds));
  os.write(reinterpret_cast<const char*>(&buckets), sizeof(buckets));
  os.write(reinterpret_cast<const char*>(ones_.data()),
           static_cast<std::streamsize>(ones_.size() * sizeof(std::uint32_t)));
  os.write(reinterpret_cast<const char*>(totals_.data()),
           static_cast<std::streamsize>(totals_.size() * sizeof(std::uint32_t)));
  os.write(reinterpret_cast<const char*>(density_num_.data()),
           static_cast<std::streamsize>(density_num_.size() * sizeof(double)));
  os.write(reinterpret_cast<const char*>(density_den_.data()),
           static_cast<std::streamsize>(density_den_.size() * sizeof(double)));
}

void TabularDenoiser::load(std::istream& is) {
  std::uint32_t magic = 0;
  std::int32_t conds = 0, buckets = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  is.read(reinterpret_cast<char*>(&conds), sizeof(conds));
  is.read(reinterpret_cast<char*>(&buckets), sizeof(buckets));
  if (!is || magic != 0x43505444 || conds != config_.conditions ||
      buckets != config_.time_buckets) {
    throw std::runtime_error("TabularDenoiser::load: incompatible file");
  }
  is.read(reinterpret_cast<char*>(ones_.data()),
          static_cast<std::streamsize>(ones_.size() * sizeof(std::uint32_t)));
  is.read(reinterpret_cast<char*>(totals_.data()),
          static_cast<std::streamsize>(totals_.size() * sizeof(std::uint32_t)));
  is.read(reinterpret_cast<char*>(density_num_.data()),
          static_cast<std::streamsize>(density_num_.size() * sizeof(double)));
  is.read(reinterpret_cast<char*>(density_den_.data()),
          static_cast<std::streamsize>(density_den_.size() * sizeof(double)));
  if (!is) throw std::runtime_error("TabularDenoiser::load: truncated file");
}

}  // namespace cp::diffusion
