// Branch-free single-precision exp and log for loops gcc should vectorise.
//
// Both are pure arithmetic plus bit_cast, so a loop over them compiles to
// SIMD (16-wide with AVX-512), unlike calls into libm. They are shared by
// the decode softmax (nn::Vae::decode_probs_rows) and the training loss
// (tensor::cross_entropy_with_logits), so the probabilities the sampler
// draws from and the ones the loss trains are computed by one exp kernel.
// Loops over them need -fno-math-errno -fno-trapping-math (set on dt_nn
// and dt_tensor) for gcc to if-convert and vectorise std::floor.
#pragma once

#include <bit>
#include <cstdint>
#include <cmath>

namespace dt::tensor {

/// exp(x) for x <= 0: 2^(x/ln 2) with the integer part folded into the
/// exponent bits and a degree-5 polynomial for 2^frac. Relative error
/// ~2e-7 for x in [-1, 0], growing with |x| (the rounding of x/ln 2) to
/// ~4e-6 at the underflow edge. Accuracy note: in the decode softmax these probabilities
/// define the proposal distribution itself -- the SAME values are used to
/// sample and to evaluate both densities of the MH ratio -- so a
/// (deterministic) approximate exp leaves detailed balance exact.
/// Precondition: x <= 0 (softmax feeds logit - rowmax). Inputs below
/// -126 ln 2 flush to exactly 0 via the integer exponent clamp -- the
/// right answer for an underflowing softmax term, and branch-free where
/// a float clamp (std::min/max) would block gcc's if-conversion.
inline float vec_expf(float x) {
  const float z = x * 1.4426950408889634f;  // x / ln 2
  const float fl = std::floor(z);
  const float r = z - fl;                   // in [0, 1)
  // 2^r, minimax-ish degree 5 (coefficients ~ (ln 2)^k / k!).
  float p = 1.8775767e-3f;
  p = p * r + 8.9893397e-3f;
  p = p * r + 5.5826318e-2f;
  p = p * r + 2.4015361e-1f;
  p = p * r + 6.9315308e-1f;
  p = p * r + 9.9999994e-1f;
  std::int32_t biased = static_cast<std::int32_t>(fl) + 127;
  biased = biased < 0 ? 0 : biased;  // 2^fl underflow -> scale = 0.0f
  const float scale =
      std::bit_cast<float>(static_cast<std::uint32_t>(biased) << 23);
  return p * scale;
}

/// log(x) for normal positive x, within a few ulp. x = 2^k * m with
/// m in [sqrt(1/2), sqrt(2)): the exponent is read from the bits after
/// shifting them by sqrt(1/2)'s, so no compare picks the range. Then
/// log(m) = 2 atanh(s), s = (m - 1) / (m + 1), |s| < 0.172, as the odd
/// series through s^9 (truncation < 1e-9 relative), and k ln 2 is added
/// in two parts so large k keeps the low bits of log(m).
/// Precondition: x >= FLT_MIN, finite (the softmax normaliser is >= 1).
inline float vec_logf(float x) {
  constexpr std::int32_t kSqrtHalfBits = 0x3f3504f3;  // bits of sqrt(1/2)
  const std::int32_t shifted = std::bit_cast<std::int32_t>(x) - kSqrtHalfBits;
  const std::int32_t k = shifted >> 23;  // arithmetic: floor division
  const float m = std::bit_cast<float>((shifted & 0x007fffff) + kSqrtHalfBits);
  const float f = m - 1.0f;  // exact: m in [0.5, 2]
  const float s = f / (2.0f + f);
  const float s2 = s * s;
  float q = 2.0f / 9.0f;
  q = q * s2 + 2.0f / 7.0f;
  q = q * s2 + 2.0f / 5.0f;
  q = q * s2 + 2.0f / 3.0f;
  const float kf = static_cast<float>(k);
  // ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 16 significant bits, so
  // kf * kLn2Hi is exact for every float exponent.
  constexpr float kLn2Hi = 6.93145752e-1f;
  constexpr float kLn2Lo = 1.42860677e-6f;
  return kf * kLn2Hi + (kf * kLn2Lo + (2.0f * s + s * s2 * q));
}

}  // namespace dt::tensor
