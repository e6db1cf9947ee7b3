#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "tensor/vec_math.hpp"

namespace dt::tensor {
namespace {

TEST(Tensor, ConstructionAndShape) {
  const auto t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);

  const auto f = Tensor::full({4}, 2.5f);
  for (float v : f.data()) EXPECT_EQ(v, 2.5f);
}

TEST(Tensor, FromDataValidatesSize) {
  EXPECT_THROW((void)Tensor::from_data({2, 2}, {1.0f, 2.0f}), dt::Error);
  const auto t = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.data()[3], 4.0f);
}

TEST(Tensor, RandnMoments) {
  Xoshiro256ss rng(1);
  const auto t = Tensor::randn({100, 100}, 2.0f, rng);
  double sum = 0, sum2 = 0;
  for (float v : t.data()) {
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(t.numel());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 4.0, 0.1);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_THROW((void)Tensor::zeros({2}).item(), dt::Error);
  EXPECT_EQ(Tensor::full({1}, 3.0f).item(), 3.0f);
}

TEST(Tensor, VersionBumpsOnMutableDataOnly) {
  // The packed-weight cache (Linear) keys on this counter: every
  // mutable data() access must bump it, const reads must not -- a
  // missed bump would serve stale packed panels after a weight update.
  auto t = Tensor::zeros({2, 2});
  const auto v0 = t.version();

  (void)std::as_const(t).data();  // const read: no bump
  EXPECT_EQ(t.version(), v0);

  t.data()[0] = 1.0f;  // mutable access: bump
  const auto v1 = t.version();
  EXPECT_GT(v1, v0);

  (void)std::as_const(t).data();
  EXPECT_EQ(t.version(), v1);

  (void)t.data();  // even an unused mutable borrow must bump
  EXPECT_GT(t.version(), v1);

  // Copies share the node, so they share the counter -- the cache sees
  // mutations through any alias.
  auto alias = t;
  const auto v2 = t.version();
  alias.data()[1] = 2.0f;
  EXPECT_GT(t.version(), v2);
  EXPECT_EQ(t.version(), alias.version());
}

TEST(Ops, ElementwiseForward) {
  const auto a = Tensor::from_data({3}, {1, 2, 3});
  const auto b = Tensor::from_data({3}, {10, 20, 30});
  EXPECT_EQ(add(a, b).data(), (std::vector<float>{11, 22, 33}));
  EXPECT_EQ(sub(b, a).data(), (std::vector<float>{9, 18, 27}));
  EXPECT_EQ(mul(a, b).data(), (std::vector<float>{10, 40, 90}));
  EXPECT_EQ(scale(a, 2.0f).data(), (std::vector<float>{2, 4, 6}));
  EXPECT_EQ(add_scalar(a, 1.0f).data(), (std::vector<float>{2, 3, 4}));
  EXPECT_EQ(neg(a).data(), (std::vector<float>{-1, -2, -3}));
  EXPECT_EQ(square(a).data(), (std::vector<float>{1, 4, 9}));
}

TEST(Ops, ShapeMismatchThrows) {
  const auto a = Tensor::zeros({3});
  const auto b = Tensor::zeros({4});
  EXPECT_THROW((void)add(a, b), dt::Error);
  EXPECT_THROW((void)matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3})),
               dt::Error);
}

TEST(Ops, MatmulForward) {
  const auto a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  const auto c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.data(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(Ops, AddRowvecBroadcasts) {
  const auto a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  const auto b = Tensor::from_data({3}, {10, 20, 30});
  EXPECT_EQ(add_rowvec(a, b).data(),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(Ops, ReductionsForward) {
  const auto a = Tensor::from_data({4}, {1, 2, 3, 4});
  EXPECT_EQ(sum(a).item(), 10.0f);
  EXPECT_EQ(mean(a).item(), 2.5f);
}

TEST(Ops, LogSoftmaxRowsSumToOne) {
  const auto logits = Tensor::from_data({2, 3}, {1, 2, 3, -1, 0, 5});
  const auto ls = log_softmax(logits);
  for (int r = 0; r < 2; ++r) {
    float total = 0;
    for (int c = 0; c < 3; ++c)
      total += std::exp(ls.data()[static_cast<std::size_t>(r * 3 + c)]);
    EXPECT_NEAR(total, 1.0f, 1e-6);
  }
}

TEST(Ops, CrossEntropyForwardValue) {
  // Uniform logits: CE = ln(C).
  const auto logits = Tensor::from_data({2, 4}, std::vector<float>(8, 0.0f));
  const auto loss =
      cross_entropy_with_logits(logits, std::vector<std::uint8_t>{0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-6);
}

TEST(Ops, OnehotMatmulRejectsBadInput) {
  const auto w = Tensor::zeros({2 * 3 + 1, 4}, /*requires_grad=*/true);
  const auto tail = Tensor::zeros({1, 1});
  const std::vector<std::uint8_t> ok = {0, 2};
  const std::vector<std::uint8_t> out_of_range = {0, 3};
  EXPECT_EQ(onehot_matmul(ok, 3, tail, w).shape(), (Shape{1, 4}));
  EXPECT_THROW((void)onehot_matmul(out_of_range, 3, tail, w), dt::Error);
  // The tail gets no gradient, so a trainable one is refused.
  const auto trainable = Tensor::zeros({1, 1}, /*requires_grad=*/true);
  EXPECT_THROW((void)onehot_matmul(ok, 3, trainable, w), dt::Error);
}

// ---- cross-entropy against a double-precision reference ----

// Logits of `classes` columns: Gaussian rows, the first six replaced by
// rows at +-80 whose label sits on the -80 logit (probability ~e^-160,
// loss 160), on the +80 logit (loss ~0), or among ties. 37 rows: not a
// multiple of the 16 reduction lanes.
struct XentCase {
  std::vector<float> logits;
  std::vector<std::uint8_t> labels;
};

XentCase xent_case(std::size_t classes, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  XentCase c;
  const std::size_t rows = 37;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = 0; k < classes; ++k)
      c.logits.push_back(3.0f * static_cast<float>(normal01(rng)));
    c.labels.push_back(static_cast<std::uint8_t>(uniform_index(rng, classes)));
  }
  const auto set_row = [&](std::size_t r, float fill, std::size_t hot,
                           float hot_value, std::size_t label) {
    for (std::size_t k = 0; k < classes; ++k)
      c.logits[r * classes + k] = k == hot ? hot_value : fill;
    c.labels[r] = static_cast<std::uint8_t>(label);
  };
  set_row(0, -80.0f, classes - 1, 80.0f, 0);            // p(label) ~ e^-160
  set_row(1, -80.0f, 0, 80.0f, 0);                      // p(label) ~ 1
  set_row(2, 80.0f, 1, -80.0f, 1);                      // label is the low one
  set_row(3, 0.0f, 0, 0.0f, classes - 1);               // uniform row
  set_row(4, 80.0f, classes - 1, 80.0f, classes / 2);   // all at +80
  set_row(5, -80.0f, 0, -80.0f, 1);                     // all at -80
  return c;
}

TEST(CrossEntropy, MatchesDoubleReferenceForTwoToFiveClasses) {
  for (const std::size_t classes : {2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(testing::Message() << classes << " classes");
    const XentCase c = xent_case(classes, 40 + classes);
    const std::size_t rows = c.labels.size();
    auto x = Tensor::from_data(
        {static_cast<std::int64_t>(rows), static_cast<std::int64_t>(classes)},
        c.logits, /*requires_grad=*/true);
    Tensor loss = cross_entropy_with_logits(x, c.labels);
    loss.backward();

    double ref_loss = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = &c.logits[r * classes];
      double hi = row[0];
      for (std::size_t k = 1; k < classes; ++k)
        hi = std::max(hi, static_cast<double>(row[k]));
      double z = 0.0;
      for (std::size_t k = 0; k < classes; ++k)
        z += std::exp(static_cast<double>(row[k]) - hi);
      const double log_z = hi + std::log(z);
      ref_loss += log_z - static_cast<double>(row[c.labels[r]]);
      for (std::size_t k = 0; k < classes; ++k) {
        const double p = std::exp(static_cast<double>(row[k]) - log_z);
        const double ref_grad =
            (p - (k == c.labels[r] ? 1.0 : 0.0)) / static_cast<double>(rows);
        EXPECT_NEAR(static_cast<double>(x.grad()[r * classes + k]), ref_grad,
                    1e-6 / static_cast<double>(rows))
            << "row " << r << " class " << k;
      }
    }
    ref_loss /= static_cast<double>(rows);
    EXPECT_NEAR(static_cast<double>(loss.item()), ref_loss, 1e-6 * ref_loss);
  }
}

TEST(CrossEntropy, OutOfRangeLabelIsAnError) {
  for (const std::int64_t classes : {3, 4}) {
    const auto logits = Tensor::zeros({2, classes});
    const std::vector<std::uint8_t> bad = {
        0, static_cast<std::uint8_t>(classes)};
    EXPECT_THROW((void)cross_entropy_with_logits(logits, bad), dt::Error);
    const auto wide = Tensor::zeros({1, 2 * classes});
    EXPECT_THROW((void)cross_entropy_with_logits(wide, bad, classes),
                 dt::Error);
  }
  // The class count must tile the rows of the in-place form.
  EXPECT_THROW((void)cross_entropy_with_logits(
                   Tensor::zeros({2, 6}), std::vector<std::uint8_t>(3, 0), 4),
               dt::Error);
}

// Reading a (B, n * s) tensor in place as B * n rows of s logits is
// bitwise the two-argument form on the reshaped tensor: loss and every
// gradient entry.
TEST(CrossEntropy, InPlaceRowsAreBitwiseTheReshapedCall) {
  for (const std::int64_t classes : {3, 4}) {
    const std::int64_t batch = 5, sites = 7;
    Xoshiro256ss rng(static_cast<std::uint64_t>(60 + classes));
    std::vector<float> values(static_cast<std::size_t>(batch * sites * classes));
    for (auto& v : values) v = 2.0f * static_cast<float>(normal01(rng));
    std::vector<std::uint8_t> labels(static_cast<std::size_t>(batch * sites));
    for (auto& l : labels)
      l = static_cast<std::uint8_t>(
          uniform_index(rng, static_cast<std::uint64_t>(classes)));

    auto a = Tensor::from_data({batch, sites * classes}, values, true);
    Tensor la = scale(cross_entropy_with_logits(a, labels, classes), 3.0f);
    la.backward();
    auto b = Tensor::from_data({batch, sites * classes}, values, true);
    Tensor lb = scale(
        cross_entropy_with_logits(b.reshape({batch * sites, classes}), labels),
        3.0f);
    lb.backward();
    EXPECT_EQ(la.item(), lb.item());
    EXPECT_EQ(a.grad(), b.grad());
  }
}

// vec_expf over [-87, 0] (below that it flushes to 0) and vec_logf over
// every binade of the normal floats, against double-precision libm.
TEST(VecMath, ExpAndLogAccuracySweep) {
  double worst_exp_near = 0.0, worst_exp = 0.0;
  for (int i = 0; i <= 870'000; ++i) {
    const float x = -1e-4f * static_cast<float>(i);
    const double ref = std::exp(static_cast<double>(x));
    const double rel =
        std::fabs(static_cast<double>(vec_expf(x)) - ref) / ref;
    worst_exp = std::max(worst_exp, rel);
    if (x >= -1.0f) worst_exp_near = std::max(worst_exp_near, rel);
  }
  EXPECT_LT(worst_exp_near, 3e-7);  // ~2 ulp where softmax mass lives
  EXPECT_LT(worst_exp, 5e-6);       // x / ln 2 rounding grows with |x|
  EXPECT_EQ(vec_expf(-90.0f), 0.0f);

  double worst_log = 0.0;
  for (std::uint32_t bits = 0x00800000u; bits < 0x7f800000u; bits += 997) {
    const auto x = std::bit_cast<float>(bits);
    const double ref = std::log(static_cast<double>(x));
    const double err = std::fabs(static_cast<double>(vec_logf(x)) - ref);
    worst_log = std::max(worst_log, err / std::max(std::fabs(ref), 1e-30));
  }
  EXPECT_LT(worst_log, 3e-7);
  EXPECT_EQ(vec_logf(1.0f), 0.0f);
}

// ---- gradient checks: autograd vs central finite differences ----

using GraphBuilder = std::function<Tensor(Tensor&)>;

void check_gradients(const Shape& shape, std::vector<float> x0,
                     const GraphBuilder& build, float tol = 2e-2f) {
  auto x = Tensor::from_data(shape, x0, /*requires_grad=*/true);
  auto loss = build(x);
  loss.backward();
  const std::vector<float> analytic = x.grad();

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x0.size(); ++i) {
    auto perturbed = x0;
    perturbed[i] += eps;
    auto xp = Tensor::from_data(shape, perturbed, true);
    const float up = build(xp).item();
    perturbed[i] -= 2 * eps;
    auto xm = Tensor::from_data(shape, perturbed, true);
    const float um = build(xm).item();
    const float numeric = (up - um) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0f, std::fabs(numeric)))
        << "component " << i;
  }
}

TEST(Grad, Sum) {
  check_gradients({3}, {1, -2, 3}, [](Tensor& x) { return sum(x); });
}

TEST(Grad, MeanOfSquare) {
  check_gradients({4}, {1, -2, 3, 0.5},
                  [](Tensor& x) { return mean(square(x)); });
}

TEST(Grad, ExpLogChain) {
  check_gradients({3}, {0.5, 1.0, 2.0}, [](Tensor& x) {
    return sum(log(add_scalar(exp(x), 1.0f)));
  });
}

TEST(Grad, TanhSigmoidRelu) {
  check_gradients({4}, {-1.5, -0.3, 0.4, 2.0}, [](Tensor& x) {
    return sum(tanh(x)) + sum(sigmoid(x)) + sum(relu(x));
  });
}

TEST(Grad, MulBothSides) {
  const auto c = Tensor::from_data({3}, {2, -1, 0.5});
  check_gradients({3}, {1, 2, 3},
                  [&](Tensor& x) { return sum(mul(x, mul(x, c))); });
}

TEST(Grad, MatmulLeft) {
  Xoshiro256ss rng(2);
  const auto b = Tensor::randn({3, 2}, 1.0f, rng);
  check_gradients({2, 3}, {1, 2, -1, 0.5, 0, 1},
                  [&](Tensor& x) { return sum(matmul(x, b)); });
}

TEST(Grad, MatmulRight) {
  const auto a = Tensor::from_data({2, 3}, {1, -1, 2, 0, 3, 1});
  check_gradients({3, 2}, {1, 2, 3, 4, 5, 6}, [&](Tensor& x) {
    return sum(square(matmul(a, x)));
  });
}

TEST(Grad, AddRowvecBias) {
  const auto a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  check_gradients({3}, {0.1f, -0.2f, 0.3f}, [&](Tensor& x) {
    return sum(square(add_rowvec(a, x)));
  });
}

TEST(Grad, LogSoftmax) {
  check_gradients({2, 3}, {1, 2, 3, -1, 0, 1}, [](Tensor& x) {
    // Weighted sum to give non-uniform upstream gradients.
    const auto w = Tensor::from_data({2, 3}, {1, 0.5, -1, 2, 0, 1});
    return sum(mul(log_softmax(x), w));
  });
}

TEST(Grad, CrossEntropy) {
  check_gradients({3, 4}, {1, 2, 0.5, -1, 0, 1, 2, 3, -2, 0.5, 1, 0},
                  [](Tensor& x) {
                    return cross_entropy_with_logits(
                        x, std::vector<std::uint8_t>{1, 3, 0});
                  });
}

TEST(Grad, Reshape) {
  check_gradients({2, 3}, {1, 2, 3, 4, 5, 6}, [](Tensor& x) {
    return sum(square(x.reshape({3, 2})));
  });
}

TEST(Grad, SharedSubexpression) {
  // y = x used twice: gradients must accumulate through both paths.
  check_gradients({3}, {1, 2, 3},
                  [](Tensor& x) { return sum(mul(x, x)) + sum(scale(x, 3.0f)); });
}

TEST(Autograd, BackwardRequiresScalar) {
  auto x = Tensor::from_data({2}, {1, 2}, true);
  auto y = square(x);
  EXPECT_THROW(y.backward(), dt::Error);
}

TEST(Autograd, BackwardOnConstantThrows) {
  auto x = Tensor::from_data({1}, {1});
  EXPECT_THROW(x.backward(), dt::Error);
}

TEST(Autograd, DetachStopsGradients) {
  auto x = Tensor::from_data({2}, {3, 4}, true);
  auto d = x.detach();
  EXPECT_FALSE(d.requires_grad());
  auto loss = sum(mul(x, d));  // d treated as constant
  loss.backward();
  EXPECT_EQ(x.grad()[0], 3.0f);
  EXPECT_EQ(x.grad()[1], 4.0f);
}

TEST(Autograd, SecondBackwardOverwritesGrads) {
  auto x = Tensor::from_data({1}, {2}, true);
  auto loss1 = square(x);
  loss1.backward();
  EXPECT_EQ(x.grad()[0], 4.0f);
  auto loss2 = scale(x, 3.0f);
  loss2.backward();
  EXPECT_EQ(x.grad()[0], 3.0f);  // overwritten, not accumulated
}

// Constant operands get no gradient: every op's backward skips parents
// with requires_grad == false, so no constant ever grows a gradient
// buffer (Tensor::backward only zeroes the buffers of trainable nodes, so
// one would accumulate across calls), and a second backward() leaves the
// trainable gradients exactly as the first.
TEST(Autograd, ConstantOperandsGetNoGradient) {
  auto x = Tensor::from_data({2, 3}, {0.5f, -1, 2, 0.25f, 1.5f, -0.75f}, true);
  auto w = Tensor::from_data({3, 3}, {1, -2, 0.5f, 3, 0.1f, -1, 2, 1, 0.3f},
                             true);
  auto bias = Tensor::from_data({3}, {0.2f, -0.1f, 0.4f}, true);
  const auto c = Tensor::from_data({2, 3}, {1, 2, -3, 0.5f, -0.5f, 4});
  const auto cw = Tensor::from_data({3, 3}, {0.3f, -1, 2, 1, 1, -0.2f, 0.7f,
                                             -0.4f, 1});
  const auto cv = Tensor::from_data({3}, {1, -1, 0.5f});
  const auto cc = Tensor::from_data({2, 2}, {0.1f, 0.2f, 0.3f, 0.4f});
  const std::vector<std::uint8_t> labels = {2, 0};

  const auto build = [&] {
    Tensor y = add(x, c) + add(c, x) + sub(x, c) + sub(c, x) + mul(x, c) +
               mul(c, x) + add_rowvec(c, bias) + add_rowvec(x, cv) +
               matmul(c, w) + matmul(x, cw) +
               mul(x, tanh(c).reshape({2, 3}));
    const Tensor cat = concat_cols(concat_cols(y, cc), concat_cols(cc, x));
    return sum(square(cat)) + sum(log_softmax(y)) +
           cross_entropy_with_logits(y, labels) + sum(exp(scale(x, 0.1f)));
  };
  build().backward();
  const std::vector<float> gx = x.grad(), gw = w.grad(), gb = bias.grad();
  build().backward();
  EXPECT_EQ(x.grad(), gx);
  EXPECT_EQ(w.grad(), gw);
  EXPECT_EQ(bias.grad(), gb);
  for (const Tensor* k : {&c, &cw, &cv, &cc})
    EXPECT_TRUE(k->node()->grad.empty());
}

TEST(Shape, Helpers) {
  EXPECT_EQ(numel({2, 3, 4}), 24);
  EXPECT_EQ(to_string({2, 3}), "(2, 3)");
  EXPECT_THROW((void)numel({2, 0}), dt::Error);
}

}  // namespace
}  // namespace dt::tensor
