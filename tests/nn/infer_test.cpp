#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/serialize.h"

namespace cp::nn {
namespace {

// The stateless infer() path must match the stateful forward() path
// bit-for-bit — that is what lets the MLP denoiser advertise thread-safe
// inference without changing a single sampled pattern.

void expect_bit_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what << ": shape " << a.shape_string() << " vs "
                               << b.shape_string();
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " differs at " << i;
  }
}

void check_infer_matches_forward(Layer& layer, const Tensor& x, const char* what) {
  Workspace ws;
  const Tensor y_forward = layer.forward(x);
  Tensor y_infer;
  layer.infer(x, y_infer, ws);
  expect_bit_equal(y_forward, y_infer, what);
  // Second call with the warm workspace: buffers are reused, result unchanged.
  layer.infer(x, y_infer, ws);
  expect_bit_equal(y_forward, y_infer, what);
}

TEST(InferTest, LinearVectorPath) {
  util::Rng rng(21);
  Linear layer(23, 64, rng);  // out >= kVecMinOut: packed kernel
  check_infer_matches_forward(layer, Tensor::randn({5, 23}, rng), "Linear(23,64)");
}

TEST(InferTest, LinearNaivePath) {
  util::Rng rng(22);
  Linear layer(16, 3, rng);  // out < kVecMinOut: naive kernel
  check_infer_matches_forward(layer, Tensor::randn({4, 16}, rng), "Linear(16,3)");
}

TEST(InferTest, Activations) {
  util::Rng rng(23);
  const Tensor x = Tensor::randn({3, 17}, rng);
  ReLU relu;
  check_infer_matches_forward(relu, x, "ReLU");
  SiLU silu;
  check_infer_matches_forward(silu, x, "SiLU");
  Sigmoid sigmoid;
  check_infer_matches_forward(sigmoid, x, "Sigmoid");
}

Sequential make_mlp(util::Rng& rng) {
  Sequential net;
  net.add(std::make_unique<Linear>(23, 64, rng));
  net.add(std::make_unique<SiLU>());
  net.add(std::make_unique<Linear>(64, 64, rng));
  net.add(std::make_unique<SiLU>());
  net.add(std::make_unique<Linear>(64, 1, rng));
  return net;
}

TEST(InferTest, SequentialMatchesForward) {
  util::Rng rng(25);
  Sequential net = make_mlp(rng);
  for (int n : {1, 4, 33}) {
    const Tensor x = Tensor::randn({n, 23}, rng);
    const Tensor y_forward = net.forward(x);
    Workspace ws;
    expect_bit_equal(y_forward, net.infer(x, ws), "Sequential");
  }
}

TEST(InferTest, WorkspaceReuseAcrossBatchSizesIsSafe) {
  util::Rng rng(26);
  Sequential net = make_mlp(rng);
  Workspace ws;
  // Shrinking and growing batch sizes through one workspace must keep
  // producing forward()-exact results (buffers resize, never stale).
  for (int n : {16, 1, 7, 16, 2}) {
    const Tensor x = Tensor::randn({n, 23}, rng);
    expect_bit_equal(net.forward(x), net.infer(x, ws), "Sequential reuse");
  }
}

TEST(InferTest, PackedWeightCacheInvalidatesAfterOptimizerStep) {
  util::Rng rng(27);
  Sequential net = make_mlp(rng);
  Workspace ws;
  const Tensor x = Tensor::randn({3, 23}, rng);
  expect_bit_equal(net.forward(x), net.infer(x, ws), "before step");

  // Fabricate a gradient and take an optimizer step: every Param's version
  // bumps, so the workspace must repack and track the new weights.
  net.zero_grad();
  Tensor g({3, 1}, 1.0f);
  net.backward(g);
  Adam opt(net.params(), 0.05f);
  opt.step();

  expect_bit_equal(net.forward(x), net.infer(x, ws), "after Adam step");

  // And after loading weights via Param assignment + bump (the serializer
  // path): mutate one weight directly and bump its version.
  Param* p = net.params().front();
  p->value[0] += 1.0f;
  p->bump_version();
  expect_bit_equal(net.forward(x), net.infer(x, ws), "after manual bump");
}

// --- int8 quantized inference (opt-in tier; DESIGN.md "Quantized
// inference"). Not bit-equal to infer(), but bit-deterministic, version-
// tracked like the packed fp32 weights, and within a small tolerance of the
// fp32 result on unit-scale inputs.

void expect_close(const Tensor& a, const Tensor& b, float tol, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << what << " differs at " << i;
  }
}

TEST(InferTest, QuantizableMatchesTheLinearActivationPattern) {
  util::Rng rng(30);
  EXPECT_TRUE(make_mlp(rng).quantizable());
  Sequential relu_net;
  relu_net.add(std::make_unique<Linear>(8, 16, rng));
  relu_net.add(std::make_unique<ReLU>());
  relu_net.add(std::make_unique<Linear>(16, 2, rng));
  EXPECT_TRUE(relu_net.quantizable());

  EXPECT_FALSE(Sequential().quantizable());
  Sequential trailing_act = make_mlp(rng);
  trailing_act.add(std::make_unique<Sigmoid>());
  EXPECT_FALSE(trailing_act.quantizable());
  Sequential sigmoid_mid;
  sigmoid_mid.add(std::make_unique<Linear>(8, 16, rng));
  sigmoid_mid.add(std::make_unique<Sigmoid>());
  sigmoid_mid.add(std::make_unique<Linear>(16, 2, rng));
  EXPECT_FALSE(sigmoid_mid.quantizable());
}

TEST(InferTest, InferQuantizedTracksInferWithinTolerance) {
  util::Rng rng(31);
  Sequential net = make_mlp(rng);
  Workspace ws;
  for (int n : {1, 4, 33}) {
    const Tensor x = Tensor::randn({n, 23}, rng);
    expect_close(net.infer(x, ws), net.infer_quantized(x, ws), 0.05f, "quantized vs fp32");
  }
}

TEST(InferTest, InferQuantizedBitDeterministicAcrossSimdToggle) {
  util::Rng rng(32);
  Sequential net = make_mlp(rng);
  const Tensor x = Tensor::randn({7, 23}, rng);
  Workspace ws_scalar, ws_simd;
  gemm::set_simd_enabled(false);
  const Tensor y_scalar = net.infer_quantized(x, ws_scalar);  // copy: ws ref is reused
  gemm::set_simd_enabled(true);
  expect_bit_equal(y_scalar, net.infer_quantized(x, ws_simd), "quantized simd toggle");
}

TEST(InferTest, InferQuantizedFallsBackWhenNotQuantizable) {
  util::Rng rng(33);
  Sequential net = make_mlp(rng);
  net.add(std::make_unique<Sigmoid>());  // trailing activation: not quantizable
  Workspace ws;
  const Tensor x = Tensor::randn({5, 23}, rng);
  const Tensor y = net.infer(x, ws);  // copy before the workspace is reused
  expect_bit_equal(y, net.infer_quantized(x, ws), "fallback to fp32");

  EXPECT_THROW(net.infer_quantized_pre(1, nullptr, nullptr, ws), std::logic_error);
}

TEST(InferTest, InferQuantizedPreMatchesFloatStaging) {
  // Callers that build int16 rows directly (the MLP denoiser's grid path)
  // must land on the same bits as the quantize_rows staging pass.
  util::Rng rng(34);
  Sequential net = make_mlp(rng);
  Workspace ws;
  const int n = 6, in = 23, pin = gemm::quant_pad(in);
  const Tensor x = Tensor::randn({n, in}, rng);
  std::vector<std::int16_t> qx(static_cast<std::size_t>(n) * pin);
  std::vector<float> rs(static_cast<std::size_t>(n));
  gemm::quantize_rows(n, in, pin, x.data(), qx.data(), rs.data());
  const Tensor y_staged = net.infer_quantized(x, ws);  // copy: ws ref is reused
  Workspace ws_pre;
  expect_bit_equal(y_staged, net.infer_quantized_pre(n, qx.data(), rs.data(), ws_pre),
                   "pre-quantized vs staged");
}

TEST(InferTest, QuantizedPackInvalidatesAfterOptimizerStep) {
  // The int8 twin of PackedWeightCacheInvalidatesAfterOptimizerStep: a warm
  // workspace must never serve a stale weight pack after the optimizer or
  // the serializer rewrites the parameters. "Fresh workspace" is the oracle:
  // it can only see the current weights.
  util::Rng rng(35);
  Sequential net = make_mlp(rng);
  Workspace ws;
  const Tensor x = Tensor::randn({3, 23}, rng);
  const Tensor y_before = net.infer_quantized(x, ws);

  net.zero_grad();
  Tensor g({3, 1}, 1.0f);
  net.forward(x);
  net.backward(g);
  Adam opt(net.params(), 0.05f);
  opt.step();

  {
    Workspace fresh;
    const Tensor y_fresh = net.infer_quantized(x, fresh);
    expect_bit_equal(y_fresh, net.infer_quantized(x, ws), "after Adam step");
    // And the step actually moved the output — a no-op update would make
    // this test vacuous.
    bool changed = false;
    for (std::size_t i = 0; i < y_fresh.numel(); ++i) changed = changed || y_fresh[i] != y_before[i];
    EXPECT_TRUE(changed);
  }

  // Serializer path: load_params overwrites values and bumps versions.
  util::Rng rng2(36);
  Sequential donor = make_mlp(rng2);
  std::stringstream blob;
  save_params(blob, donor.params());
  load_params(blob, net.params());
  {
    Workspace fresh;
    const Tensor y_fresh = net.infer_quantized(x, fresh);
    expect_bit_equal(y_fresh, net.infer_quantized(x, ws), "after load_params");
  }

  // Manual Param mutation + bump (what optimizers and loaders do internally).
  Param* p = net.params().front();
  p->value[0] += 1.0f;
  p->bump_version();
  {
    Workspace fresh;
    const Tensor y_fresh = net.infer_quantized(x, fresh);
    expect_bit_equal(y_fresh, net.infer_quantized(x, ws), "after manual bump");
  }
}

TEST(InferTest, SequentialParamsCacheTracksAdd) {
  util::Rng rng(28);
  Sequential net;
  net.add(std::make_unique<Linear>(4, 8, rng));
  EXPECT_EQ(net.params().size(), 2u);
  net.add(std::make_unique<SiLU>());
  net.add(std::make_unique<Linear>(8, 2, rng));
  EXPECT_EQ(net.params().size(), 4u);
  // Same vector object back (cached), not a fresh copy per call.
  EXPECT_EQ(&net.params(), &net.params());
}

TEST(InferTest, EmptySequentialIsIdentity) {
  util::Rng rng(29);
  Sequential net;
  Workspace ws;
  const Tensor x = Tensor::randn({2, 3}, rng);
  expect_bit_equal(x, net.infer(x, ws), "empty Sequential");
}

}  // namespace
}  // namespace cp::nn
