#pragma once
// Neural denoiser: a receptive-field MLP trained with Adam on the BCE
// objective (the cross-entropy term of Equation (10); see trainer.h for the
// full loss discussion). Slower than the tabular estimator but exercises the
// from-scratch NN stack end to end; used by tests, examples and the
// denoiser ablation bench.
//
// Features per pixel: the same 17-cell neighbourhood as the tabular
// denoiser (values ±1), a 4-dim sinusoidal timestep embedding, and the
// class condition one-hot — the "condition embedding added to the time
// embedding" design of the paper collapsed to input features, appropriate
// for an MLP.
//
// Inference is stateless and thread-safe: predict_x0 / predict_x0_pixel run
// through nn::Sequential::infer with a thread-local workspace (packed
// weights cached per Param version, feature/logit buffers reused, and the
// timestep+condition feature tail computed once per diffusion step instead
// of once per pixel). Concurrent calls on one instance never race, so
// thread_safe_inference() returns true and BatchSampler / extension tile
// waves fan out for the MLP. Training still uses the stateful forward().

#include <memory>

#include "diffusion/denoiser.h"
#include "diffusion/schedule.h"
#include "diffusion/tabular_denoiser.h"
#include "nn/layers.h"

namespace cp::diffusion {

struct MlpConfig {
  int conditions = 2;
  int hidden = 64;
  int layers = 2;  // hidden layers
  /// Route predict_x0 / predict_x0_pixel / predict_x0_row through the int8
  /// inference tier (DESIGN.md "Quantized inference"). The only precision
  /// selector: a model's tier is fixed where the model is built. Appended
  /// last so positional brace-inits stay valid.
  bool quantized = false;
};

class MlpDenoiser : public Denoiser {
 public:
  MlpDenoiser(const NoiseSchedule& schedule, const MlpConfig& config, util::Rng& rng);

  void predict_x0(const squish::Topology& xk, int k, int condition,
                  ProbGrid& p0) const override;
  float predict_x0_pixel(const squish::Topology& xk, int r, int c, int k,
                         int condition) const override;
  /// Batched pixel query: p(x0=1) for every cell of row `r` in one GEMM
  /// call, writing xk.cols() probabilities to `out`. Equivalent to calling
  /// predict_x0_pixel per column but amortizes the neighbourhood gather and
  /// the kernel launch across the row (bit-identical per pixel on the fp32
  /// path; the interior plane gather produces the same feature values as the
  /// mirrored per-pixel loads and GEMM rows are independent).
  void predict_x0_row(const squish::Topology& xk, int r, int k, int condition,
                      float* out) const;
  int conditions() const override { return config_.conditions; }
  /// Inference runs the stateless nn::Layer::infer path with thread-local
  /// scratch — concurrent calls are race-free.
  bool thread_safe_inference() const override { return true; }
  const char* name() const override { return "MlpDenoiser"; }

  int feature_dim() const;

  /// Features for every pixel of `xk`: tensor [rows*cols, feature_dim].
  nn::Tensor build_features(const squish::Topology& xk, int k, int condition) const;

  /// Features for a single pixel (used by the minibatch trainer).
  void pixel_features(const squish::Topology& xk, int r, int c, int k, int condition,
                      float* out) const;

  nn::Sequential& net() { return net_; }
  const NoiseSchedule& schedule() const { return *schedule_; }

 private:
  /// True when inference takes the int8 tier: the config opts in and the net
  /// matches the quantizable stack pattern.
  bool use_int8() const;

  const NoiseSchedule* schedule_;
  MlpConfig config_;
  // Inference uses the const, stateless infer() path; only the trainer
  // (via net()) runs the stateful forward()/backward().
  nn::Sequential net_;
};

}  // namespace cp::diffusion
