#pragma once
// Neural-network layers with explicit forward/backward passes.
//
// Two execution paths share the same parameters:
//
//  * Training: `forward()` is stateful per batch — it caches whatever the
//    corresponding `backward()` needs. Parameters are exposed as
//    (value, grad) pairs for the optimizer.
//  * Inference: `infer()` is `const` and stateless. All scratch lives in a
//    caller-owned Workspace, so concurrent callers with per-thread
//    workspaces can share one network with no locks and no allocations on
//    the hot loop (buffers are reused via Tensor::resize once warm).
//
// Both paths produce bit-identical outputs: the blocked kernels in nn/gemm.h
// preserve the per-element accumulation order of the naive loops.
//
// This is all the machinery the MLP denoiser and the autoencoder baselines
// need.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "nn/gemm.h"
#include "nn/tensor.h"

namespace cp::nn {

/// Monotonic process-wide stamp; every Param construction or mutation draws
/// a fresh value, so a (pointer, version) pair uniquely identifies weight
/// *contents* even across address reuse. Thread-safe (atomic counter).
std::uint64_t next_param_version();

struct Param {
  Tensor value;
  Tensor grad;
  /// Bumped by the optimizers and the serializer whenever `value` changes;
  /// keys Workspace's packed-weight cache.
  std::uint64_t version = next_param_version();

  void bump_version() { version = next_param_version(); }
};

/// Caller-owned scratch for the stateless inference path. One workspace per
/// thread; never shared concurrently. Pools:
///  * activation(i): ping-pong output buffers used by Sequential::infer.
///  * packed_wt(p):  transposed weight cache for the vector GEMM kernel,
///                   invalidated automatically via Param::version.
///  * quantized_pack(w, b): int8 weight pack for the quantized path,
///                   invalidated via *both* Params' versions.
/// All buffers grow on demand and are reused via Tensor::resize, so steady
/// state inference performs zero heap allocations.
class Workspace {
 public:
  Tensor& activation(std::size_t i) { return slot(activations_, i); }

  /// The packed transpose of `p.value` (flattened to 2-D, [in, out]) for
  /// gemm::forward_packed. Re-packed only when `p.version` changes.
  const Tensor& packed_wt(const Param& p);

  /// The int8 pack of a Linear's (weight, bias) for the quantized inference
  /// path. Re-quantized whenever either Param's version changes — optimizer
  /// steps and the serializer's load path bump both, so a stale pack can
  /// never be served after a weight update (tests/nn/infer_test.cpp).
  const gemm::QuantizedPack& quantized_pack(const Param& w, const Param& b);

  /// Typed scratch pools for the quantized chain (int16 activations, int32
  /// accumulators, row scales). Same growth-and-reuse discipline as the
  /// Tensor pools.
  std::vector<std::int16_t>& qi16(std::size_t i) { return slot_v(qi16_, i); }
  std::vector<std::int32_t>& qi32(std::size_t i) { return slot_v(qi32_, i); }
  std::vector<float>& qf32(std::size_t i) { return slot_v(qf32_, i); }

 private:
  // Deques so references handed out stay valid as pools grow on demand.
  static Tensor& slot(std::deque<Tensor>& pool, std::size_t i) {
    while (pool.size() <= i) pool.emplace_back();
    return pool[i];
  }
  template <typename T>
  static std::vector<T>& slot_v(std::deque<std::vector<T>>& pool, std::size_t i) {
    while (pool.size() <= i) pool.emplace_back();
    return pool[i];
  }

  struct PackEntry {
    const Param* param = nullptr;
    std::uint64_t version = 0;
    Tensor wt;
  };

  struct QuantPackEntry {
    const Param* weight = nullptr;
    std::uint64_t weight_version = 0;
    std::uint64_t bias_version = 0;
    gemm::QuantizedPack pack;
  };

  std::deque<Tensor> activations_;
  std::deque<PackEntry> packs_;
  std::deque<QuantPackEntry> qpacks_;
  std::deque<std::vector<std::int16_t>> qi16_;
  std::deque<std::vector<std::int32_t>> qi32_;
  std::deque<std::vector<float>> qf32_;
};

class Layer {
 public:
  virtual ~Layer() = default;
  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;
  /// Stateless forward: writes the result into `y` (resized as needed),
  /// touching only `ws` for scratch. Must match forward() bit-for-bit.
  virtual void infer(const Tensor& x, Tensor& y, Workspace& ws) const = 0;
  virtual std::vector<Param*> params() { return {}; }
  virtual const char* name() const = 0;
};

/// Fully connected: y = x W^T + b.
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, util::Rng& rng);
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer(const Tensor& x, Tensor& y, Workspace& ws) const override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  const char* name() const override { return "Linear"; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  const Param& weight() const { return weight_; }
  const Param& bias() const { return bias_; }
  int in_features() const { return weight_.value.dim(1); }
  int out_features() const { return weight_.value.dim(0); }

 private:
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor input_;  // cached for backward
};

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer(const Tensor& x, Tensor& y, Workspace& ws) const override;
  const char* name() const override { return "ReLU"; }

 private:
  Tensor input_;
};

/// SiLU (x * sigmoid(x)) — the activation of the paper's U-Net backbone.
class SiLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer(const Tensor& x, Tensor& y, Workspace& ws) const override;
  const char* name() const override { return "SiLU"; }

 private:
  Tensor input_;
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void infer(const Tensor& x, Tensor& y, Workspace& ws) const override;
  const char* name() const override { return "Sigmoid"; }

 private:
  Tensor output_;
};

/// A simple sequential container.
class Sequential {
 public:
  Sequential() = default;
  void add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    params_dirty_ = true;
  }
  Tensor forward(const Tensor& x);
  /// Propagate the loss gradient back through all layers (accumulates
  /// parameter grads; call zero_grad() between steps).
  Tensor backward(const Tensor& grad_out);
  /// Stateless forward through all layers, ping-ponging between the
  /// workspace's activation buffers. Returns a reference into `ws`, valid
  /// until the next infer() with the same workspace. Bit-identical to
  /// forward(); safe to call concurrently with per-thread workspaces.
  const Tensor& infer(const Tensor& x, Workspace& ws) const;
  /// True when the stack matches the quantizable pattern
  /// (Linear [SiLU|ReLU])* Linear — the shapes infer_quantized can run.
  bool quantizable() const;
  /// Opt-in int8 inference (DESIGN.md "Quantized inference"): dynamic
  /// per-row activation quantization, per-channel weight quantization from
  /// the workspace's version-stamped pack cache, int32 accumulation and a
  /// fused bias+dequant+activation+requant epilogue between layers. NOT
  /// bit-equal to infer() (quantization error ~1e-2 on unit-scale inputs);
  /// bit-deterministic across thread counts and ISAs. Falls back to infer()
  /// when the stack is not quantizable or `x` is not 2-D.
  const Tensor& infer_quantized(const Tensor& x, Workspace& ws) const;
  /// Quantized inference from pre-quantized rows: qx is [n, pin] int16 with
  /// per-row scales rs[n], where pin = gemm::quant_pad of the first
  /// Linear's input width (callers that build int16 features directly skip
  /// the float staging pass entirely). Throws when not quantizable().
  const Tensor& infer_quantized_pre(int n, const std::int16_t* qx, const float* rs,
                                    Workspace& ws) const;
  /// Flattened parameter list; cached (rebuilt only after add()).
  const std::vector<Param*>& params();
  void zero_grad();
  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Param*> params_cache_;
  bool params_dirty_ = true;
};

/// Binary cross-entropy with logits; returns mean loss and writes
/// d(loss)/d(logits) into grad (same shape). targets in {0,1} (or soft).
float bce_with_logits(const Tensor& logits, const Tensor& targets, Tensor& grad);

/// Mean squared error; returns mean loss and writes gradient.
float mse_loss(const Tensor& pred, const Tensor& target, Tensor& grad);

}  // namespace cp::nn
