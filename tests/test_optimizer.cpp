#include "tensor/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace dt::tensor {
namespace {

/// Minimise sum((x - target)^2) and return the final x.
template <class MakeOpt>
std::vector<float> minimize_quadratic(const MakeOpt& make_opt, int steps) {
  auto x = Tensor::from_data({3}, {5.0f, -4.0f, 2.0f}, true);
  const auto target = Tensor::from_data({3}, {1.0f, 2.0f, -3.0f});
  auto opt = make_opt(std::vector<Tensor>{x});
  for (int i = 0; i < steps; ++i) {
    auto loss = sum(square(sub(x, target)));
    loss.backward();
    opt->step();
  }
  return x.data();
}

TEST(Sgd, ConvergesOnQuadratic) {
  const auto x = minimize_quadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Sgd>(std::move(p), 0.1f);
      },
      200);
  EXPECT_NEAR(x[0], 1.0f, 1e-3);
  EXPECT_NEAR(x[1], 2.0f, 1e-3);
  EXPECT_NEAR(x[2], -3.0f, 1e-3);
}

TEST(Sgd, MomentumAcceleratesButConverges) {
  const auto x = minimize_quadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Sgd>(std::move(p), 0.02f, 0.9f);
      },
      300);
  EXPECT_NEAR(x[0], 1.0f, 1e-2);
  EXPECT_NEAR(x[1], 2.0f, 1e-2);
}

TEST(Adam, ConvergesOnQuadratic) {
  const auto x = minimize_quadratic(
      [](std::vector<Tensor> p) {
        return std::make_unique<Adam>(std::move(p), 0.2f);
      },
      400);
  EXPECT_NEAR(x[0], 1.0f, 1e-2);
  EXPECT_NEAR(x[1], 2.0f, 1e-2);
  EXPECT_NEAR(x[2], -3.0f, 1e-2);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  auto x = Tensor::from_data({1}, {10.0f}, true);
  Adam opt({x}, 0.5f);
  auto loss = sum(square(x));
  loss.backward();
  opt.step();
  EXPECT_NEAR(x.data()[0], 10.0f - 0.5f, 1e-4);
}

TEST(Optimizer, ZeroGradClears) {
  auto x = Tensor::from_data({2}, {1.0f, 2.0f}, true);
  Sgd opt({x}, 0.1f);
  auto loss = sum(square(x));
  loss.backward();
  EXPECT_NE(x.grad()[0], 0.0f);
  opt.zero_grad();
  EXPECT_EQ(x.grad()[0], 0.0f);
  EXPECT_EQ(x.grad()[1], 0.0f);
}

TEST(Optimizer, RejectsConstantParameters) {
  auto x = Tensor::from_data({2}, {1.0f, 2.0f});  // no grad
  EXPECT_THROW((void)Sgd({x}, 0.1f), dt::Error);
  EXPECT_THROW((void)Adam({x}, 0.1f), dt::Error);
}

TEST(Adam, DeterministicAcrossInstances) {
  auto run = [] {
    auto x = Tensor::from_data({2}, {3.0f, -1.0f}, true);
    Adam opt({x}, 0.1f);
    for (int i = 0; i < 50; ++i) {
      auto loss = sum(square(x));
      loss.backward();
      opt.step();
    }
    return x.data();
  };
  EXPECT_EQ(run(), run());
}

// The vectorised update keeps IEEE results: Adam::step is pinned bit for
// bit against a plain scalar loop, over a parameter whose length is not a
// multiple of 16 so both the vector body and the scalar tail run.
TEST(Adam, StepIsBitwiseThePlainScalarLoop) {
  constexpr std::size_t kN = 37;
  const float lr = 3e-3f, b1 = 0.85f, b2 = 0.995f, eps = 1e-6f;
  Xoshiro256ss rng(11);
  std::vector<float> value(kN), m(kN, 0.0f), v(kN, 0.0f);
  for (float& x : value) x = static_cast<float>(uniform01(rng) - 0.5);
  auto param = Tensor::from_data({static_cast<std::int64_t>(kN)}, value, true);
  Adam opt({param}, lr, b1, b2, eps);
  for (int t = 1; t <= 5; ++t) {
    std::vector<float>& g = param.grad();
    for (float& x : g) x = static_cast<float>(4.0 * uniform01(rng) - 2.0);
    opt.step();
    const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
    for (std::size_t i = 0; i < kN; ++i) {
      m[i] = b1 * m[i] + (1.0f - b1) * g[i];
      v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
      const float m_hat = m[i] / bc1;
      const float v_hat = v[i] / bc2;
      value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
    ASSERT_EQ(std::as_const(param).data(), value) << "step " << t;
  }
}

}  // namespace
}  // namespace dt::tensor
