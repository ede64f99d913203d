#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

namespace cp::nn {
namespace {

/// Finite-difference check: compare analytic parameter/input gradients of a
/// scalar loss against central differences.
void check_gradients(Layer& layer, const Tensor& input, float tol = 2e-2f) {
  // Scalar loss = sum of squares of outputs (grad = 2 * out).
  auto loss_of = [&](const Tensor& x) {
    const Tensor y = layer.forward(x);
    double s = 0;
    for (std::size_t i = 0; i < y.numel(); ++i) s += static_cast<double>(y[i]) * y[i];
    return s;
  };

  for (Param* p : layer.params()) p->grad.fill(0.0f);
  const Tensor out = layer.forward(input);
  Tensor gout = out;
  for (std::size_t i = 0; i < gout.numel(); ++i) gout[i] = 2.0f * out[i];
  const Tensor gin = layer.backward(gout);

  const float eps = 1e-3f;
  // Input gradient.
  Tensor x = input;
  for (std::size_t i = 0; i < std::min<std::size_t>(x.numel(), 8); ++i) {
    const float saved = x[i];
    x[i] = saved + eps;
    const double up = loss_of(x);
    x[i] = saved - eps;
    const double down = loss_of(x);
    x[i] = saved;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(gin[i], numeric, tol * (1.0 + std::fabs(numeric))) << "input grad " << i;
  }
  // Parameter gradients (restore forward cache with the original input).
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->value.numel(), 8); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const double up = loss_of(input);
      p->value[i] = saved - eps;
      const double down = loss_of(input);
      p->value[i] = saved;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol * (1.0 + std::fabs(numeric))) << "param grad " << i;
    }
  }
}

TEST(LayersTest, LinearGradientsMatchFiniteDifferences) {
  util::Rng rng(1);
  Linear layer(5, 3, rng);
  const Tensor x = Tensor::randn({2, 5}, rng);
  check_gradients(layer, x);
}

TEST(LayersTest, ReLUGradients) {
  util::Rng rng(2);
  ReLU layer;
  Tensor x = Tensor::randn({2, 6}, rng);
  // Keep inputs away from the kink.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.3f;
  }
  check_gradients(layer, x);
}

TEST(LayersTest, SiLUGradients) {
  util::Rng rng(3);
  SiLU layer;
  check_gradients(layer, Tensor::randn({2, 6}, rng));
}

TEST(LayersTest, SigmoidGradients) {
  util::Rng rng(4);
  Sigmoid layer;
  check_gradients(layer, Tensor::randn({2, 6}, rng));
}

TEST(LayersTest, SequentialComposesAndBackprops) {
  util::Rng rng(7);
  Sequential net;
  net.add(std::make_unique<Linear>(4, 8, rng));
  net.add(std::make_unique<SiLU>());
  net.add(std::make_unique<Linear>(8, 1, rng));
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.params().size(), 4u);

  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor y = net.forward(x);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 1);

  net.zero_grad();
  Tensor g({3, 1}, 1.0f);
  const Tensor gin = net.backward(g);
  EXPECT_EQ(gin.dim(1), 4);
  // Some gradient must have accumulated.
  double total = 0;
  for (Param* p : net.params()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) total += std::fabs(p->grad[i]);
  }
  EXPECT_GT(total, 0.0);
}

TEST(LayersTest, BceWithLogitsMatchesManual) {
  Tensor logits({1, 2});
  logits[0] = 0.0f;
  logits[1] = 2.0f;
  Tensor targets({1, 2});
  targets[0] = 1.0f;
  targets[1] = 0.0f;
  Tensor grad;
  const float loss = bce_with_logits(logits, targets, grad);
  const double expected =
      0.5 * (-std::log(0.5) + -std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0))));
  EXPECT_NEAR(loss, expected, 1e-5);
  // grad = (sigmoid(x) - t) / n
  EXPECT_NEAR(grad[0], (0.5 - 1.0) / 2.0, 1e-5);
  EXPECT_NEAR(grad[1], (1.0 / (1.0 + std::exp(-2.0))) / 2.0, 1e-5);
}

TEST(LayersTest, BceIsStableForExtremeLogits) {
  Tensor logits({1, 2});
  logits[0] = 100.0f;
  logits[1] = -100.0f;
  Tensor targets({1, 2});
  targets[0] = 1.0f;
  targets[1] = 0.0f;
  Tensor grad;
  const float loss = bce_with_logits(logits, targets, grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-5);
}

TEST(LayersTest, MseLoss) {
  Tensor pred({1, 2});
  pred[0] = 1.0f;
  pred[1] = 3.0f;
  Tensor target({1, 2});
  target[0] = 0.0f;
  target[1] = 3.0f;
  Tensor grad;
  EXPECT_NEAR(mse_loss(pred, target, grad), 0.5, 1e-6);
  EXPECT_NEAR(grad[0], 1.0, 1e-6);
  EXPECT_NEAR(grad[1], 0.0, 1e-6);
}

}  // namespace
}  // namespace cp::nn
