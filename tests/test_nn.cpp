#include "nn/vae.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "nn/module.hpp"
#include "tensor/optimizer.hpp"

namespace dt::nn {
namespace {

TEST(Linear, ForwardMatchesManual) {
  Xoshiro256ss rng(1);
  Linear lin(2, 3, rng);
  // Overwrite weights for a deterministic check.
  auto params = lin.parameters();
  params[0].data() = {1, 2, 3, 4, 5, 6};  // W (2x3)
  params[1].data() = {0.5, -0.5, 1.0};    // b

  const auto x = tensor::Tensor::from_data({2, 2}, {1, 0, 0, 1});
  const auto y = lin.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 3}));
  EXPECT_EQ(y.data(), (std::vector<float>{1.5, 1.5, 4, 4.5, 4.5, 7}));
}

TEST(Linear, XavierScaleReasonable) {
  Xoshiro256ss rng(2);
  Linear lin(100, 100, rng);
  double sum2 = 0;
  const auto& w = lin.parameters()[0].data();
  for (float v : w) sum2 += static_cast<double>(v) * v;
  EXPECT_NEAR(sum2 / static_cast<double>(w.size()), 2.0 / 200.0, 0.002);
}

TEST(Activation, Kinds) {
  const auto x = tensor::Tensor::from_data({3}, {-1, 0, 1});
  Activation relu(ActivationKind::kRelu);
  EXPECT_EQ(relu.forward(x).data(), (std::vector<float>{0, 0, 1}));
  Activation th(ActivationKind::kTanh);
  EXPECT_NEAR(th.forward(x).data()[2], std::tanh(1.0f), 1e-6);
  Activation sig(ActivationKind::kSigmoid);
  EXPECT_NEAR(sig.forward(x).data()[1], 0.5f, 1e-6);
  EXPECT_EQ(relu.name(), "relu");
}

TEST(Sequential, ComposesAndCollectsParameters) {
  Xoshiro256ss rng(3);
  auto mlp = make_mlp({4, 8, 2}, ActivationKind::kTanh, rng);
  EXPECT_EQ(mlp->size(), 3u);  // linear, act, linear
  EXPECT_EQ(mlp->parameters().size(), 4u);
  const auto x = tensor::Tensor::zeros({5, 4});
  const auto y = mlp->forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{5, 2}));
}

TEST(Mlp, CanFitXor) {
  Xoshiro256ss rng(4);
  auto mlp = make_mlp({2, 8, 2}, ActivationKind::kTanh, rng);
  tensor::Adam opt(mlp->parameters(), 0.05f);
  const auto x =
      tensor::Tensor::from_data({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<std::uint8_t> labels = {0, 1, 1, 0};
  float loss_val = 0;
  for (int i = 0; i < 300; ++i) {
    auto loss = tensor::cross_entropy_with_logits(mlp->forward(x), labels);
    loss.backward();
    opt.step();
    loss_val = loss.item();
  }
  EXPECT_LT(loss_val, 0.05f);
}

VaeOptions small_opts() {
  VaeOptions o;
  o.n_sites = 16;
  o.n_species = 4;
  o.hidden = 24;
  o.latent = 4;
  return o;
}

TEST(Vae, ShapesAndParameterCount) {
  Vae vae(small_opts(), 1);
  EXPECT_EQ(vae.input_dim(), 64);
  EXPECT_EQ(vae.latent_dim(), 4);
  // enc W+b, mu W+b, logvar W+b, dec (W+b, W+b).
  EXPECT_EQ(vae.parameters().size(), 10u);
  const std::int64_t expect = 64 * 24 + 24 + 2 * (24 * 4 + 4) +
                              (4 * 24 + 24) + (24 * 64 + 64);
  EXPECT_EQ(vae.parameter_count(), expect);
}

TEST(Vae, OneHotLayout) {
  Vae vae(small_opts(), 1);
  std::vector<std::uint8_t> occ(32, 0);
  occ[0] = 3;
  occ[16] = 1;  // second sample, first site
  const auto x = vae.one_hot(occ, 2);
  EXPECT_EQ(x.size(), 128u);
  EXPECT_EQ(x[3], 1.0f);         // sample 0, site 0, species 3
  EXPECT_EQ(x[0], 0.0f);
  EXPECT_EQ(x[4], 1.0f);         // sample 0, site 1, species 0
  EXPECT_EQ(x[64 + 1], 1.0f);    // sample 1, site 0, species 1
}

TEST(Vae, DecodeProbsAreNormalizedAndFloored) {
  auto opts = small_opts();
  opts.prob_floor = 0.01f;
  Vae vae(opts, 2);
  const std::vector<float> z = {0.3f, -1.0f, 0.5f, 2.0f};
  const auto probs = vae.decode_probs(z);
  ASSERT_EQ(probs.size(), 64u);
  for (int site = 0; site < 16; ++site) {
    float total = 0;
    for (int s = 0; s < 4; ++s) {
      const float p = probs[static_cast<std::size_t>(site * 4 + s)];
      EXPECT_GE(p, 0.01f / 4 - 1e-7f);
      total += p;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Vae, DecodeIsDeterministic) {
  Vae vae(small_opts(), 3);
  const std::vector<float> z = {1, 2, 3, 4};
  EXPECT_EQ(vae.decode_probs(z), vae.decode_probs(z));
}

TEST(Vae, LossDecreasesWithTraining) {
  Vae vae(small_opts(), 4);
  tensor::Adam opt(vae.parameters(), 1e-2f);
  Xoshiro256ss eps(5);

  // A fixed batch of 8 "ordered" configurations.
  std::vector<std::uint8_t> occ;
  for (int b = 0; b < 8; ++b)
    for (int i = 0; i < 16; ++i)
      occ.push_back(static_cast<std::uint8_t>((i + b) % 4));

  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    auto parts = vae.loss(occ, 8, eps);
    parts.total.backward();
    opt.step();
    if (step == 0) first = parts.total.item();
    last = parts.total.item();
  }
  EXPECT_LT(last, first * 0.7f);
}

TEST(Vae, LossPartsAreConsistent) {
  Vae vae(small_opts(), 6);
  Xoshiro256ss eps(7);
  std::vector<std::uint8_t> occ(16, 1);
  const auto parts = vae.loss(occ, 1, eps);
  EXPECT_NEAR(parts.total.item(), parts.reconstruction + parts.kl, 1e-4f);
  EXPECT_GE(parts.kl, -1e-5f);             // KL >= 0
  EXPECT_GT(parts.reconstruction, 0.0f);   // NLL > 0
}

struct LossAndGrads {
  float total = 0;
  std::vector<std::vector<float>> grads;  // one per Vae::parameters() entry
};

LossAndGrads backprop(Vae& vae, tensor::Tensor total) {
  total.backward();
  LossAndGrads out{total.item(), {}};
  for (const auto& p : vae.parameters()) out.grads.push_back(p.grad());
  return out;
}

/// Vae::loss recomposed from tensor ops over the dense one-hot batch:
/// the encoder as it was before the sparse one-hot path.
LossAndGrads dense_loss(Vae& vae, const std::vector<std::uint8_t>& occ,
                        std::int64_t batch, const std::vector<float>& conds,
                        std::uint64_t eps_seed) {
  using namespace tensor;
  const VaeOptions& o = vae.options();
  const auto p = vae.parameters();
  const auto linear = [&p](const Tensor& in, std::size_t i) {
    return add_rowvec(matmul(in, p[i]), p[i + 1]);
  };
  Tensor x = Tensor::from_data({batch, vae.input_dim()}, vae.one_hot(occ, batch));
  Tensor cond;
  if (o.condition_dim > 0) {
    cond = Tensor::from_data({batch, o.condition_dim}, conds);
    x = concat_cols(x, cond);
  }
  const Tensor h = tanh(linear(x, 0));
  const Tensor mu = linear(h, 2);
  const Tensor logvar = linear(h, 4);
  Xoshiro256ss eps_rng(eps_seed);
  const Tensor eps = Tensor::randn({batch, o.latent}, 1.0f, eps_rng);
  Tensor z = mu + exp(scale(logvar, 0.5f)) * eps;
  if (o.condition_dim > 0) z = concat_cols(z, cond);
  const Tensor logits = linear(tanh(linear(z, 6)), 8);
  const Tensor recon = scale(
      cross_entropy_with_logits(
          logits.reshape({batch * o.n_sites, o.n_species}), occ),
      static_cast<float>(o.n_sites));
  const Tensor kl =
      scale(sum(add_scalar(logvar, 1.0f) - square(mu) - exp(logvar)),
            -0.5f / static_cast<float>(batch));
  return backprop(vae, recon + scale(kl, o.kl_weight));
}

// The sparse one-hot encoder (gather-sum forward, scatter-add dW) must
// reproduce the dense one-hot GEMM bit for bit: loss and every parameter
// gradient, with and without a condition tail, on shapes whose one-hot
// width is and is not a multiple of the GEMM's 4-row tile.
TEST(Vae, SparseEncoderLossIsBitwiseTheDenseOneHotLoss) {
  struct Case {
    std::int32_t n_sites, n_species, condition_dim;
    std::int64_t batch;
  };
  for (const Case& c : {Case{16, 4, 0, 8}, Case{16, 4, 1, 8},
                        Case{15, 3, 2, 5}, Case{15, 3, 0, 33}}) {
    VaeOptions o = small_opts();
    o.n_sites = c.n_sites;
    o.n_species = c.n_species;
    o.condition_dim = c.condition_dim;
    Vae vae(o, 21);
    Xoshiro256ss rng(22);
    std::vector<std::uint8_t> occ(
        static_cast<std::size_t>(c.batch * c.n_sites));
    for (auto& s : occ)
      s = static_cast<std::uint8_t>(
          uniform_index(rng, static_cast<std::uint64_t>(c.n_species)));
    std::vector<float> conds(
        static_cast<std::size_t>(c.batch * c.condition_dim));
    for (auto& v : conds) v = static_cast<float>(uniform01(rng));

    const LossAndGrads dense = dense_loss(vae, occ, c.batch, conds, 23);
    Xoshiro256ss eps(23);
    const LossAndGrads sparse =
        backprop(vae, vae.loss(occ, c.batch, eps, conds).total);
    EXPECT_EQ(sparse.total, dense.total) << "sites " << c.n_sites;
    ASSERT_EQ(sparse.grads.size(), dense.grads.size());
    for (std::size_t i = 0; i < dense.grads.size(); ++i)
      EXPECT_EQ(sparse.grads[i], dense.grads[i])
          << "parameter " << i << ", sites " << c.n_sites << ", condition "
          << c.condition_dim;
  }
}

TEST(Vae, SaveLoadRoundTrip) {
  Vae a(small_opts(), 8);
  Vae b(small_opts(), 999);  // different init
  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  const std::vector<float> z = {0.1f, 0.2f, 0.3f, 0.4f};
  EXPECT_EQ(a.decode_probs(z), b.decode_probs(z));

  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].data(), pb[i].data());
}

TEST(Vae, LoadRejectsWrongArchitecture) {
  Vae a(small_opts(), 1);
  auto other = small_opts();
  other.hidden = 32;
  Vae b(other, 1);
  std::stringstream ss;
  a.save(ss);
  EXPECT_THROW(b.load(ss), dt::Error);
}

TEST(Vae, LoadRejectsGarbage) {
  Vae a(small_opts(), 1);
  std::stringstream ss("definitely not a vae file");
  EXPECT_THROW(a.load(ss), dt::Error);
}

TEST(Vae, EncodeMeanShape) {
  Vae vae(small_opts(), 9);
  std::vector<std::uint8_t> occ(16, 2);
  const auto mu = vae.encode_mean(vae.one_hot(occ, 1));
  EXPECT_EQ(mu.size(), 4u);
  for (float v : mu) EXPECT_TRUE(std::isfinite(v));
}

TEST(Vae, SameSeedSameWeights) {
  Vae a(small_opts(), 77);
  Vae b(small_opts(), 77);
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(pa[i].data(), pb[i].data());
}

TEST(Vae, RejectsBadOptions) {
  auto o = small_opts();
  o.n_sites = 0;
  EXPECT_THROW((void)Vae(o, 1), dt::Error);
  o = small_opts();
  o.n_species = 1;
  EXPECT_THROW((void)Vae(o, 1), dt::Error);
  o = small_opts();
  o.prob_floor = 1.5f;
  EXPECT_THROW((void)Vae(o, 1), dt::Error);
}

}  // namespace
}  // namespace dt::nn
