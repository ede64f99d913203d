#include "nn/layers.h"

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"

namespace cp::nn {

std::uint64_t next_param_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

const Tensor& Workspace::packed_wt(const Param& p) {
  PackEntry* entry = nullptr;
  for (auto& e : packs_) {
    if (e.param == &p) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    packs_.emplace_back();
    entry = &packs_.back();
    entry->param = &p;
    entry->version = 0;  // differs from any live Param version (they start at 1)
  }
  if (entry->version != p.version) {
    const int out = p.value.dim(0);
    const int in = static_cast<int>(p.value.numel()) / (out > 0 ? out : 1);
    entry->wt.resize(in, out);
    gemm::pack_wt(in, out, p.value.data(), entry->wt.data());
    entry->version = p.version;
  }
  return entry->wt;
}

const gemm::QuantizedPack& Workspace::quantized_pack(const Param& w, const Param& b) {
  QuantPackEntry* entry = nullptr;
  for (auto& e : qpacks_) {
    if (e.weight == &w) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    qpacks_.emplace_back();
    entry = &qpacks_.back();
    entry->weight = &w;
    entry->weight_version = 0;  // differs from any live version (they start at 1)
    entry->bias_version = 0;
  }
  if (entry->weight_version != w.version || entry->bias_version != b.version) {
    const int out = w.value.dim(0);
    const int in = static_cast<int>(w.value.numel()) / (out > 0 ? out : 1);
    gemm::quantize_weights(in, out, w.value.data(), b.value.data(), entry->pack);
    entry->weight_version = w.version;
    entry->bias_version = b.version;
  }
  return entry->pack;
}

Linear::Linear(int in_features, int out_features, util::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_.value = Tensor::randn({out_features, in_features}, rng, stddev);
  weight_.grad = Tensor::zeros({out_features, in_features});
  bias_.value = Tensor::zeros({out_features});
  bias_.grad = Tensor::zeros({out_features});
}

Tensor Linear::forward(const Tensor& x) {
  input_ = x;
  return linear_forward(x, weight_.value, bias_.value);
}

Tensor Linear::backward(const Tensor& grad_out) {
  const int n = input_.dim(0);
  const int in = input_.dim(1);
  const int out = weight_.value.dim(0);
  // dW += g^T x ; db += sum g ; dx = g W — same per-element accumulation
  // order as the original loops (see nn/gemm.h), so training trajectories
  // are bit-unchanged.
  gemm::backward_accum(n, in, out, grad_out.data(), input_.data(), weight_.grad.data(),
                       bias_.grad.data());
  Tensor grad_in({n, in});
  gemm::backward_dx(n, in, out, grad_out.data(), weight_.value.data(), grad_in.data());
  return grad_in;
}

void Linear::infer(const Tensor& x, Tensor& y, Workspace& ws) const {
  if (x.rank() != 2 || x.dim(1) != weight_.value.dim(1)) {
    throw std::invalid_argument("Linear::infer: bad input");
  }
  const int n = x.dim(0);
  const int in = x.dim(1);
  const int out = weight_.value.dim(0);
  y.resize(n, out);
  if (out >= gemm::kVecMinOut) {
    const Tensor& wt = ws.packed_wt(weight_);
    gemm::forward_packed(n, in, out, x.data(), wt.data(), bias_.value.data(), y.data());
  } else {
    gemm::forward_naive(n, in, out, x.data(), weight_.value.data(), bias_.value.data(),
                        y.data());
  }
}

Tensor ReLU::forward(const Tensor& x) {
  input_ = x;
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = y[i] > 0 ? y[i] : 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    if (input_[i] <= 0) g[i] = 0.0f;
  }
  return g;
}

void ReLU::infer(const Tensor& x, Tensor& y, Workspace&) const {
  y.resize_like(x);
  const float* xd = x.data();
  float* yd = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i) yd[i] = xd[i] > 0 ? xd[i] : 0.0f;
}

namespace {
inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

Tensor SiLU::forward(const Tensor& x) {
  input_ = x;
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = x[i] * sigmoidf(x[i]);
  return y;
}

Tensor SiLU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    const float s = sigmoidf(input_[i]);
    g[i] *= s * (1.0f + input_[i] * (1.0f - s));
  }
  return g;
}

void SiLU::infer(const Tensor& x, Tensor& y, Workspace&) const {
  y.resize_like(x);
  const float* xd = x.data();
  float* yd = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i) yd[i] = xd[i] * sigmoidf(xd[i]);
}

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = sigmoidf(y[i]);
  output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.numel(); ++i) g[i] *= output_[i] * (1.0f - output_[i]);
  return g;
}

void Sigmoid::infer(const Tensor& x, Tensor& y, Workspace&) const {
  y.resize_like(x);
  const float* xd = x.data();
  float* yd = y.data();
  for (std::size_t i = 0; i < x.numel(); ++i) yd[i] = sigmoidf(xd[i]);
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

const Tensor& Sequential::infer(const Tensor& x, Workspace& ws) const {
  Tensor& a0 = ws.activation(0);
  Tensor& a1 = ws.activation(1);
  const Tensor* cur = &x;
  bool flip = false;
  for (const auto& layer : layers_) {
    Tensor& out = flip ? a1 : a0;
    layer->infer(*cur, out, ws);
    cur = &out;
    flip = !flip;
  }
  if (cur == &x) {
    a0 = x;  // empty network: identity, but still return workspace-owned storage
    return a0;
  }
  return *cur;
}

namespace {

/// One quantizable stage: a Linear plus the activation fused into its
/// epilogue (the final stage has none — it dequantizes to float).
struct QuantStage {
  const Linear* linear = nullptr;
  gemm::QuantAct act = gemm::QuantAct::kSiluFast;
};

/// Match (Linear [SiLU|ReLU])* Linear; false on anything else (Sigmoid
/// heads, bare activations, trailing activations).
bool collect_quant_stages(const Sequential& net, std::vector<QuantStage>* stages) {
  if (stages != nullptr) stages->clear();
  if (net.size() == 0) return false;
  std::size_t i = 0;
  while (i < net.size()) {
    const auto* linear = dynamic_cast<const Linear*>(&net.layer(i));
    if (linear == nullptr) return false;
    QuantStage stage;
    stage.linear = linear;
    ++i;
    if (i < net.size()) {  // intermediate Linear: requires a fusable activation
      if (dynamic_cast<const SiLU*>(&net.layer(i)) != nullptr) {
        stage.act = gemm::QuantAct::kSiluFast;
      } else if (dynamic_cast<const ReLU*>(&net.layer(i)) != nullptr) {
        stage.act = gemm::QuantAct::kRelu;
      } else {
        return false;
      }
      ++i;
      if (i >= net.size()) return false;  // trailing activation: no final Linear
    }
    if (stages != nullptr) stages->push_back(stage);
  }
  return true;
}

}  // namespace

bool Sequential::quantizable() const { return collect_quant_stages(*this, nullptr); }

const Tensor& Sequential::infer_quantized(const Tensor& x, Workspace& ws) const {
  if (x.rank() != 2 || !quantizable()) return infer(x, ws);
  const int n = x.dim(0);
  const int in = x.dim(1);
  const int pin = gemm::quant_pad(in);
  // Slots 2/3 so the staging buffers never collide with the chain's
  // ping-pong buffers inside infer_quantized_pre.
  std::vector<std::int16_t>& qx = ws.qi16(2);
  std::vector<float>& rs = ws.qf32(3);
  qx.resize(static_cast<std::size_t>(n) * pin);
  rs.resize(static_cast<std::size_t>(n));
  gemm::quantize_rows(n, in, pin, x.data(), qx.data(), rs.data());
  return infer_quantized_pre(n, qx.data(), rs.data(), ws);
}

const Tensor& Sequential::infer_quantized_pre(int n, const std::int16_t* qx, const float* rs,
                                              Workspace& ws) const {
  std::vector<QuantStage> stages;
  if (!collect_quant_stages(*this, &stages)) {
    throw std::logic_error("Sequential::infer_quantized_pre: stack is not quantizable");
  }
  const std::int16_t* cur = qx;
  const float* cur_rs = rs;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const Linear& lin = *stages[s].linear;
    const gemm::QuantizedPack& pack = ws.quantized_pack(lin.weight(), lin.bias());
    std::vector<std::int32_t>& acc = ws.qi32(0);
    acc.resize(static_cast<std::size_t>(n) * pack.pout);
    gemm::forward_quantized(n, pack.pin, pack.pout, cur, pack.wq.data(), acc.data());
    if (s + 1 < stages.size()) {
      // Ping-pong between int16 slots 0/1; the epilogue's requantized rows
      // have stride pack.pout == quant_pad(next stage's input) by
      // construction, so they feed the next GEMM directly.
      std::vector<std::int16_t>& qy = ws.qi16(s % 2);
      std::vector<float>& rs_out = ws.qf32(s % 2);
      std::vector<float>& vtmp = ws.qf32(2);
      qy.resize(static_cast<std::size_t>(n) * pack.pout);
      rs_out.resize(static_cast<std::size_t>(n));
      vtmp.resize(static_cast<std::size_t>(pack.pout));
      gemm::epilogue_act_quant(stages[s].act, n, pack.pout, acc.data(), cur_rs,
                               pack.scale.data(), pack.bias.data(), vtmp.data(), qy.data(),
                               rs_out.data());
      cur = qy.data();
      cur_rs = rs_out.data();
    } else {
      Tensor& y = ws.activation(0);
      y.resize(n, pack.out);
      gemm::epilogue_dequant(n, pack.pout, pack.out, acc.data(), cur_rs, pack.scale.data(),
                             pack.bias.data(), y.data());
      return y;
    }
  }
  throw std::logic_error("Sequential::infer_quantized_pre: empty stage list");
}

const std::vector<Param*>& Sequential::params() {
  if (params_dirty_) {
    params_cache_.clear();
    for (auto& layer : layers_) {
      for (Param* p : layer->params()) params_cache_.push_back(p);
    }
    params_dirty_ = false;
  }
  return params_cache_;
}

void Sequential::zero_grad() {
  for (Param* p : params()) p->grad.fill(0.0f);
}

float bce_with_logits(const Tensor& logits, const Tensor& targets, Tensor& grad) {
  if (!logits.same_shape(targets)) throw std::invalid_argument("bce_with_logits: shape mismatch");
  grad = Tensor::zeros(logits.shape());
  const std::size_t n = logits.numel();
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float x = logits[i];
    const float t = targets[i];
    // Stable: max(x,0) - x t + log(1 + exp(-|x|)).
    loss += std::max(x, 0.0f) - x * t + std::log1p(std::exp(-std::fabs(x)));
    grad[i] = (sigmoidf(x) - t) / static_cast<float>(n);
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

float mse_loss(const Tensor& pred, const Tensor& target, Tensor& grad) {
  if (!pred.same_shape(target)) throw std::invalid_argument("mse_loss: shape mismatch");
  grad = Tensor::zeros(pred.shape());
  const std::size_t n = pred.numel();
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    loss += d * d;
    grad[i] = 2.0f * d / static_cast<float>(n);
  }
  return static_cast<float>(loss / static_cast<double>(n));
}

}  // namespace cp::nn
