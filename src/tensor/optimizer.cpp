#include "tensor/optimizer.hpp"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace dt::tensor {

Optimizer::Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {
  for (const auto& p : params_)
    DT_CHECK_MSG(p.requires_grad(), "optimizer parameter lacks requires_grad");
}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

Sgd::Sgd(std::vector<Tensor> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (const auto& p : params_)
    velocity_.emplace_back(p.data().size(), 0.0f);
}

void Sgd::step() {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    auto& value = params_[k].data();
    const auto& grad = params_[k].grad();
    auto& vel = velocity_[k];
    for (std::size_t i = 0; i < value.size(); ++i) {
      vel[i] = momentum_ * vel[i] - lr_ * grad[i];
      value[i] += vel[i];
    }
  }
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.data().size(), 0.0f);
    v_.emplace_back(p.data().size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 =
      1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 =
      1.0f - std::pow(beta2_, static_cast<float>(t_));
  // Locals and __restrict pointers (no aliasing with the members or each
  // other) let gcc vectorise the update, sqrt and divisions included
  // (dt_tensor builds with -fno-math-errno). The per-element arithmetic
  // is unchanged, so results are IEEE-identical to the scalar loop.
  const float b1 = beta1_, b2 = beta2_, lr = lr_, eps = eps_;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    auto& values = params_[k].data();
    const std::size_t n = values.size();
    float* __restrict value = values.data();
    const float* __restrict grad = params_[k].grad().data();
    float* __restrict m = m_[k].data();
    float* __restrict v = v_[k].data();
    for (std::size_t i = 0; i < n; ++i) {
      m[i] = b1 * m[i] + (1.0f - b1) * grad[i];
      v[i] = b2 * v[i] + (1.0f - b2) * grad[i] * grad[i];
      const float m_hat = m[i] / bc1;
      const float v_hat = v[i] / bc2;
      value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
}

namespace {
constexpr std::uint64_t kAdamMagic = 0x44'54'41'44'41'4D'30'31ULL;
}  // namespace

void Adam::save_state(std::ostream& os) const {
  write_pod(os, kAdamMagic);
  write_pod(os, t_);
  write_pod<std::uint64_t>(os, m_.size());
  for (std::size_t k = 0; k < m_.size(); ++k) {
    write_vector(os, m_[k]);
    write_vector(os, v_[k]);
  }
}

void Adam::load_state(std::istream& is) {
  DT_CHECK_MSG(read_pod<std::uint64_t>(is) == kAdamMagic,
               "Adam checkpoint: bad magic");
  const auto t = read_pod<std::int64_t>(is);
  const auto n = read_pod<std::uint64_t>(is);
  DT_CHECK_MSG(n == m_.size(), "Adam checkpoint: parameter count mismatch");
  for (std::size_t k = 0; k < m_.size(); ++k) {
    auto m = read_vector<float>(is);
    auto v = read_vector<float>(is);
    DT_CHECK_MSG(m.size() == m_[k].size() && v.size() == v_[k].size(),
                 "Adam checkpoint: moment size mismatch at parameter " << k);
    m_[k] = std::move(m);
    v_[k] = std::move(v);
  }
  t_ = t;
}

}  // namespace dt::tensor
