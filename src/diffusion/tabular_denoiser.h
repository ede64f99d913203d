#pragma once
// Counting-based denoiser (the workhorse estimator; substitution S2).
//
// Layout topologies are locally structured Manhattan geometry, so
// P(x0 | x_k, k, c) is well approximated by conditioning on a small
// neighbourhood of x_k around the pixel. This denoiser learns, by counting
// over noised training samples, the empirical posterior
//     P(x0_center = 1 | 17-cell neighbourhood of x_k, timestep bucket, class)
// with Laplace smoothing toward the class density. Training is a single
// streaming pass (seconds on one core), and inference is a table lookup —
// which is what makes the paper-scale sampling experiments tractable on CPU
// while exercising exactly the same D3PM sampler as a neural denoiser.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "diffusion/denoiser.h"
#include "diffusion/schedule.h"
#include "util/rng.h"

namespace cp::diffusion {

struct TabularConfig {
  int conditions = 2;
  int time_buckets = 8;
  /// Laplace smoothing mass toward the class density prior.
  double smoothing = 4.0;
  /// Noise draws per training topology per time bucket.
  int draws_per_bucket = 2;
};

class TabularDenoiser : public Denoiser {
 public:
  /// The 17-cell neighbourhood: Manhattan-radius-2 diamond plus ring, plus
  /// four long-range probes at distance 4 along both axes. The long-range
  /// probes give the estimator enough context to keep polygon edges aligned
  /// across scan lines — the property the legalizer's constraint chains are
  /// most sensitive to.
  static constexpr int kNeighbors = 17;
  static constexpr int kTableSize = 1 << kNeighbors;

  TabularDenoiser(const NoiseSchedule& schedule, const TabularConfig& config);

  /// Accumulate counts from one class's training topologies.
  void fit(const std::vector<squish::Topology>& topologies, int condition, util::Rng& rng);

  void predict_x0(const squish::Topology& xk, int k, int condition,
                  ProbGrid& p0) const override;
  float predict_x0_pixel(const squish::Topology& xk, int r, int c, int k,
                         int condition) const override;
  int conditions() const override { return config_.conditions; }
  double prior_density(int condition) const override { return class_density(condition); }
  /// Inference is a pure table lookup over immutable counts; fit() must not
  /// run concurrently with prediction.
  bool thread_safe_inference() const override { return true; }
  const char* name() const override { return "TabularDenoiser"; }

  /// Empirical class density (fraction of 1s seen in training data).
  double class_density(int condition) const;

  /// Neighbourhood index of pixel (r, c) in `t` with mirror padding — the
  /// scalar reference path, also used as the border fallback of the packed
  /// row kernel below.
  static int neighborhood_index(const squish::Topology& t, int r, int c);

  /// Fill `indices[0..cols)` with the neighbourhood indices of row `r`,
  /// using the packed plane-gather fast path for interior cells
  /// (diffusion/neighborhood.h). Bit-identical to calling
  /// neighborhood_index per cell.
  static void neighborhood_indices_row(const squish::Topology& t, int r, int* indices);

  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  int bucket_of(int k) const;
  std::size_t cell(int condition, int bucket, int index) const;

  const NoiseSchedule* schedule_;
  TabularConfig config_;
  std::vector<std::uint32_t> ones_;
  std::vector<std::uint32_t> totals_;
  std::vector<double> density_num_;  // per-condition filled-cell counts
  std::vector<double> density_den_;
};

}  // namespace cp::diffusion
