#include "diffusion/mlp_denoiser.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "diffusion/neighborhood.h"
#include "nn/gemm.h"

namespace cp::diffusion {

namespace {
constexpr int kTimeFeatures = 4;

// Canonical offset table shared with the tabular denoiser; order defines the
// feature layout.
constexpr auto& kOffsets = neighborhood::kOffsets;

using neighborhood::mirror;

inline void neighbor_features(const squish::Topology& xk, int r, int c, float* out) {
  for (int i = 0; i < TabularDenoiser::kNeighbors; ++i) {
    const int rr = mirror(r + kOffsets[i][0], xk.rows());
    const int cc = mirror(c + kOffsets[i][1], xk.cols());
    out[i] = xk.at(rr, cc) ? 1.0f : -1.0f;
  }
}

/// Largest |offset| in kOffsets: pixels at least this far from every border
/// need no mirror reflection and can read straight from the packed planes.
constexpr int kNeighborMargin = neighborhood::kMargin;

/// Feature write from the 17 gathered bit-planes: lane j of plane i is the
/// neighbour-i value of cell (r, word*64 + j). Values are identical to
/// neighbor_features (same cells), with register shifts instead of 17
/// scattered loads plus mirror branches.
inline void neighbor_features_from_planes(const std::uint64_t* planes, int lane, float* out) {
  for (int i = 0; i < TabularDenoiser::kNeighbors; ++i) {
    out[i] = ((planes[i] >> lane) & 1u) ? 1.0f : -1.0f;
  }
}

/// Per-thread inference scratch. One instance per thread regardless of how
/// many denoisers exist: the workspace keys its packed-weight cache by
/// (Param address, version) and the feature tail is keyed by the scalar
/// values it is computed from, so sharing across instances is safe.
struct InferCtx {
  nn::Workspace ws;
  nn::Tensor features;
  // int8 path: int16 feature rows built directly (no float staging) plus the
  // constant per-row scales. Every MLP feature has |v| <= 1 and the
  // neighbours are exactly +/-1, so the per-row absmax is exactly 1.0 and
  // the direct construction below reproduces gemm::quantize_rows on the
  // float features bit-for-bit: rs = 1/127, q = lrintf(v * 127).
  std::vector<std::int16_t> qfeatures;
  std::vector<float> qrs;
  // Timestep + condition feature tail, identical for every pixel of a
  // diffusion step. Cached on the values that fully determine it (the
  // quantized tail is derived in the same refresh).
  std::vector<float> tail;
  std::vector<std::int16_t> qtail;
  bool tail_valid = false;
  double tail_t = 0.0;
  float tail_flip = 0.0f;
  int tail_conditions = -1;
  int tail_cond = -1;
};

InferCtx& infer_ctx() {
  static thread_local InferCtx ctx;
  return ctx;
}

/// The tail is a pure function of (t, flip, conditions, cond); recompute
/// only when one of those changes (i.e. once per diffusion step, not once
/// per pixel). Bit-identical to the inline computation in pixel_features.
const float* cached_tail(InferCtx& ctx, double t, float flip, int conditions, int cond) {
  if (!ctx.tail_valid || ctx.tail_t != t || ctx.tail_flip != flip ||
      ctx.tail_conditions != conditions || ctx.tail_cond != cond) {
    ctx.tail.resize(static_cast<std::size_t>(kTimeFeatures + conditions));
    ctx.tail[0] = static_cast<float>(t);
    ctx.tail[1] = static_cast<float>(std::sin(2.0 * std::numbers::pi * t));
    ctx.tail[2] = static_cast<float>(std::cos(2.0 * std::numbers::pi * t));
    ctx.tail[3] = flip;
    for (int s = 0; s < conditions; ++s) {
      ctx.tail[static_cast<std::size_t>(kTimeFeatures + s)] = (s == cond) ? 1.0f : 0.0f;
    }
    ctx.qtail.resize(ctx.tail.size());
    for (std::size_t j = 0; j < ctx.tail.size(); ++j) {
      ctx.qtail[j] = static_cast<std::int16_t>(std::lrintf(ctx.tail[j] * 127.0f));
    }
    ctx.tail_valid = true;
    ctx.tail_t = t;
    ctx.tail_flip = flip;
    ctx.tail_conditions = conditions;
    ctx.tail_cond = cond;
  }
  return ctx.tail.data();
}

/// int16 twin of neighbor_features: +/-1 quantizes to exactly +/-127.
inline void qneighbor_features(const squish::Topology& xk, int r, int c, std::int16_t* out) {
  for (int i = 0; i < TabularDenoiser::kNeighbors; ++i) {
    const int rr = mirror(r + kOffsets[i][0], xk.rows());
    const int cc = mirror(c + kOffsets[i][1], xk.cols());
    out[i] = xk.at(rr, cc) ? std::int16_t{127} : std::int16_t{-127};
  }
}

/// int16 twin of neighbor_features_from_planes.
inline void qneighbor_features_from_planes(const std::uint64_t* planes, int lane,
                                           std::int16_t* out) {
  for (int i = 0; i < TabularDenoiser::kNeighbors; ++i) {
    out[i] = ((planes[i] >> lane) & 1u) ? std::int16_t{127} : std::int16_t{-127};
  }
}

}  // namespace

MlpDenoiser::MlpDenoiser(const NoiseSchedule& schedule, const MlpConfig& config, util::Rng& rng)
    : schedule_(&schedule), config_(config) {
  if (config.conditions < 1 || config.hidden < 1 || config.layers < 1) {
    throw std::invalid_argument("MlpDenoiser: bad config");
  }
  int in = feature_dim();
  for (int i = 0; i < config.layers; ++i) {
    net_.add(std::make_unique<nn::Linear>(in, config.hidden, rng));
    net_.add(std::make_unique<nn::SiLU>());
    in = config.hidden;
  }
  net_.add(std::make_unique<nn::Linear>(in, 1, rng));
}

int MlpDenoiser::feature_dim() const {
  return TabularDenoiser::kNeighbors + kTimeFeatures + config_.conditions;
}

void MlpDenoiser::pixel_features(const squish::Topology& xk, int r, int c, int k, int condition,
                                 float* out) const {
  neighbor_features(xk, r, c, out);
  int idx = TabularDenoiser::kNeighbors;
  const double t = static_cast<double>(k) / static_cast<double>(schedule_->steps());
  out[idx++] = static_cast<float>(t);
  out[idx++] = static_cast<float>(std::sin(2.0 * std::numbers::pi * t));
  out[idx++] = static_cast<float>(std::cos(2.0 * std::numbers::pi * t));
  out[idx++] = static_cast<float>(schedule_->cumulative_flip(k));
  for (int s = 0; s < config_.conditions; ++s) out[idx++] = (s == condition) ? 1.0f : 0.0f;
}

nn::Tensor MlpDenoiser::build_features(const squish::Topology& xk, int k, int condition) const {
  const int n = xk.rows() * xk.cols();
  nn::Tensor features({n, feature_dim()});
  int row = 0;
  for (int r = 0; r < xk.rows(); ++r) {
    for (int c = 0; c < xk.cols(); ++c) {
      pixel_features(xk, r, c, k, condition,
                     features.data() + static_cast<std::size_t>(row) * feature_dim());
      ++row;
    }
  }
  return features;
}

bool MlpDenoiser::use_int8() const {
  return config_.quantized && net_.quantizable();
}

float MlpDenoiser::predict_x0_pixel(const squish::Topology& xk, int r, int c, int k,
                                    int condition) const {
  InferCtx& ctx = infer_ctx();
  const int dim = feature_dim();
  const double t = static_cast<double>(k) / static_cast<double>(schedule_->steps());
  const float flip = static_cast<float>(schedule_->cumulative_flip(k));
  const float* tail = cached_tail(ctx, t, flip, config_.conditions, condition);
  const int tail_len = kTimeFeatures + config_.conditions;
  float logit;
  if (use_int8()) {
    const int pin = nn::gemm::quant_pad(dim);
    ctx.qfeatures.resize(static_cast<std::size_t>(pin));
    ctx.qrs.assign(1, 1.0f / 127.0f);
    std::int16_t* qrow = ctx.qfeatures.data();
    qneighbor_features(xk, r, c, qrow);
    std::copy(ctx.qtail.data(), ctx.qtail.data() + tail_len,
              qrow + TabularDenoiser::kNeighbors);
    for (int j = dim; j < pin; ++j) qrow[j] = 0;
    logit = net_.infer_quantized_pre(1, qrow, ctx.qrs.data(), ctx.ws)[0];
  } else {
    ctx.features.resize(1, dim);
    float* row = ctx.features.data();
    neighbor_features(xk, r, c, row);
    std::copy(tail, tail + tail_len, row + TabularDenoiser::kNeighbors);
    logit = net_.infer(ctx.features, ctx.ws)[0];
  }
  return 1.0f / (1.0f + std::exp(-logit));
}

void MlpDenoiser::predict_x0_row(const squish::Topology& xk, int r, int k, int condition,
                                 float* out) const {
  if (condition < 0 || condition >= config_.conditions) {
    throw std::out_of_range("MlpDenoiser::predict_x0_row: bad condition");
  }
  if (r < 0 || r >= xk.rows()) {
    throw std::out_of_range("MlpDenoiser::predict_x0_row: bad row");
  }
  InferCtx& ctx = infer_ctx();
  const int n = xk.cols();
  const int dim = feature_dim();
  const double t = static_cast<double>(k) / static_cast<double>(schedule_->steps());
  const float flip = static_cast<float>(schedule_->cumulative_flip(k));
  const float* tail = cached_tail(ctx, t, flip, config_.conditions, condition);
  const int tail_len = kTimeFeatures + config_.conditions;
  std::uint64_t planes[TabularDenoiser::kNeighbors];
  const bool r_interior = r >= kNeighborMargin && r < xk.rows() - kNeighborMargin;
  const nn::Tensor* logits;
  if (use_int8()) {
    const int pin = nn::gemm::quant_pad(dim);
    ctx.qfeatures.resize(static_cast<std::size_t>(n) * pin);
    ctx.qrs.assign(static_cast<std::size_t>(n), 1.0f / 127.0f);
    std::int16_t* qrow = ctx.qfeatures.data();
    int word = -1;
    for (int c = 0; c < n; ++c, qrow += pin) {
      if (r_interior && c >= kNeighborMargin && c < n - kNeighborMargin) {
        if (c >> 6 != word) {
          word = c >> 6;
          neighborhood::gather_planes(xk, r, word, planes);
        }
        qneighbor_features_from_planes(planes, c & 63, qrow);
      } else {
        qneighbor_features(xk, r, c, qrow);
      }
      std::copy(ctx.qtail.data(), ctx.qtail.data() + tail_len,
                qrow + TabularDenoiser::kNeighbors);
      for (int j = dim; j < pin; ++j) qrow[j] = 0;
    }
    logits = &net_.infer_quantized_pre(n, ctx.qfeatures.data(), ctx.qrs.data(), ctx.ws);
  } else {
    ctx.features.resize(n, dim);
    float* row = ctx.features.data();
    int word = -1;
    for (int c = 0; c < n; ++c, row += dim) {
      if (r_interior && c >= kNeighborMargin && c < n - kNeighborMargin) {
        if (c >> 6 != word) {
          word = c >> 6;
          neighborhood::gather_planes(xk, r, word, planes);
        }
        neighbor_features_from_planes(planes, c & 63, row);
      } else {
        neighbor_features(xk, r, c, row);
      }
      std::copy(tail, tail + tail_len, row + TabularDenoiser::kNeighbors);
    }
    logits = &net_.infer(ctx.features, ctx.ws);
  }
  for (int c = 0; c < n; ++c) {
    out[c] = 1.0f / (1.0f + std::exp(-(*logits)[c]));
  }
}

void MlpDenoiser::predict_x0(const squish::Topology& xk, int k, int condition,
                             ProbGrid& p0) const {
  if (condition < 0 || condition >= config_.conditions) {
    throw std::out_of_range("MlpDenoiser::predict_x0: bad condition");
  }
  InferCtx& ctx = infer_ctx();
  const int n = xk.rows() * xk.cols();
  const int dim = feature_dim();
  const double t = static_cast<double>(k) / static_cast<double>(schedule_->steps());
  const float flip = static_cast<float>(schedule_->cumulative_flip(k));
  const float* tail = cached_tail(ctx, t, flip, config_.conditions, condition);
  const int tail_len = kTimeFeatures + config_.conditions;
  std::uint64_t planes[TabularDenoiser::kNeighbors];
  const nn::Tensor* logits;
  if (use_int8()) {
    const int pin = nn::gemm::quant_pad(dim);
    ctx.qfeatures.resize(static_cast<std::size_t>(n) * pin);
    ctx.qrs.assign(static_cast<std::size_t>(n), 1.0f / 127.0f);
    std::int16_t* qrow = ctx.qfeatures.data();
    for (int r = 0; r < xk.rows(); ++r) {
      const bool r_interior = r >= kNeighborMargin && r < xk.rows() - kNeighborMargin;
      int word = -1;  // word index currently held in `planes`
      for (int c = 0; c < xk.cols(); ++c, qrow += pin) {
        if (r_interior && c >= kNeighborMargin && c < xk.cols() - kNeighborMargin) {
          if (c >> 6 != word) {
            word = c >> 6;
            neighborhood::gather_planes(xk, r, word, planes);
          }
          qneighbor_features_from_planes(planes, c & 63, qrow);
        } else {
          qneighbor_features(xk, r, c, qrow);
        }
        std::copy(ctx.qtail.data(), ctx.qtail.data() + tail_len,
                  qrow + TabularDenoiser::kNeighbors);
        for (int j = dim; j < pin; ++j) qrow[j] = 0;
      }
    }
    logits = &net_.infer_quantized_pre(n, ctx.qfeatures.data(), ctx.qrs.data(), ctx.ws);
  } else {
    ctx.features.resize(n, dim);
    float* row = ctx.features.data();
    for (int r = 0; r < xk.rows(); ++r) {
      const bool r_interior = r >= kNeighborMargin && r < xk.rows() - kNeighborMargin;
      int word = -1;  // word index currently held in `planes`
      for (int c = 0; c < xk.cols(); ++c, row += dim) {
        if (r_interior && c >= kNeighborMargin && c < xk.cols() - kNeighborMargin) {
          if (c >> 6 != word) {
            word = c >> 6;
            neighborhood::gather_planes(xk, r, word, planes);
          }
          neighbor_features_from_planes(planes, c & 63, row);
        } else {
          neighbor_features(xk, r, c, row);
        }
        std::copy(tail, tail + tail_len, row + TabularDenoiser::kNeighbors);
      }
    }
    logits = &net_.infer(ctx.features, ctx.ws);
  }
  p0.resize(xk.size());
  for (std::size_t i = 0; i < p0.size(); ++i) {
    p0[i] = 1.0f / (1.0f + std::exp(-(*logits)[i]));
  }
}

}  // namespace cp::diffusion
