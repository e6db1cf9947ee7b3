// Correctness of the blocked GEMM kernels behind tensor::matmul, pinned
// against a naive triple loop: randomized shapes including degenerate
// and non-block-multiple edges, accumulate semantics of the backward
// kernels, and bitwise serial == parallel equality (the parallel path
// splits row tiles only, never the k reduction, so the arithmetic is
// identical by construction).
#include "tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace dt::tensor {
namespace {

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<float> m(static_cast<std::size_t>(rows * cols));
  for (auto& v : m)
    v = static_cast<float>(2.0 * uniform01(rng) - 1.0);
  return m;
}

std::vector<float> naive_nn(std::int64_t m, std::int64_t k, std::int64_t n,
                            const std::vector<float>& a,
                            const std::vector<float>& b) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0F);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t t = 0; t < k; ++t) {
      const float av = a[static_cast<std::size_t>(i * k + t)];
      for (std::int64_t j = 0; j < n; ++j)
        c[static_cast<std::size_t>(i * n + j)] +=
            av * b[static_cast<std::size_t>(t * n + j)];
    }
  return c;
}

// Float tolerance scaled by the reduction length, for the tests below
// that compare against references summed in another order (the
// depth-ordered bitwise checks are further down).
void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, std::int64_t k_len) {
  ASSERT_EQ(got.size(), want.size());
  const float tol = 1e-5F * static_cast<float>(k_len);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
}

struct Shape {
  std::int64_t m, k, n;
};

// Degenerate vectors, sub-microtile edges, non-multiples of the 4x32
// register tile and of the 256/1024 cache blocks, and one shape past the
// packing threshold.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 5, 9},    {3, 1, 4},    {1, 64, 1},   {7, 33, 65},
    {4, 32, 32}, {5, 33, 31},  {8, 257, 33}, {33, 257, 129}, {16, 300, 47},
};

TEST(GemmNN, MatchesNaiveReferenceAcrossShapes) {
  std::uint64_t salt = 0;
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, 100 + salt);
    const auto b = random_matrix(s.k, s.n, 200 + salt);
    ++salt;
    std::vector<float> c(static_cast<std::size_t>(s.m * s.n), 7.0F);
    gemm_nn(static_cast<std::size_t>(s.m), static_cast<std::size_t>(s.k),
            static_cast<std::size_t>(s.n), a.data(), b.data(), c.data());
    expect_close(c, naive_nn(s.m, s.k, s.n, a, b), s.k);
  }
}

TEST(GemmNN, OverwritesStaleOutput) {
  const auto a = random_matrix(6, 11, 1);
  const auto b = random_matrix(11, 13, 2);
  std::vector<float> c(6 * 13, 1e30F);  // must not leak into the result
  gemm_nn(6, 11, 13, a.data(), b.data(), c.data());
  expect_close(c, naive_nn(6, 11, 13, a, b), 11);
}

TEST(GemmNNAcc, AccumulatesIntoNonzeroOutput) {
  // C[i][j] += sum_t A[i][t] * B[t][j] -- the bias-prefilled forward in
  // Linear::forward relies on the initial C surviving.
  const std::int64_t m = 7, k = 19, n = 37;
  const auto a = random_matrix(m, k, 40);
  const auto b = random_matrix(k, n, 41);
  const auto init = random_matrix(m, n, 42);

  std::vector<float> got = init;
  gemm_nn_acc(m, k, n, a.data(), b.data(), got.data());

  std::vector<float> want = naive_nn(m, k, n, a, b);
  for (std::size_t i = 0; i < want.size(); ++i)
    want[i] += init[i];
  expect_close(got, want, k);
}

TEST(GemmNtAcc, AccumulatesGradIntoNonzeroOutput) {
  // dA[i][t] += sum_j dY[i][j] * B[t][j] -- exactly matmul's dA term.
  const std::int64_t m = 9, k = 21, n = 35;
  const auto dy = random_matrix(m, n, 3);
  const auto b = random_matrix(k, n, 4);
  const auto init = random_matrix(m, k, 5);

  std::vector<float> got = init;
  gemm_nt_acc(m, k, n, dy.data(), b.data(), got.data());

  std::vector<float> want = init;
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t t = 0; t < k; ++t) {
      float acc = 0.0F;
      for (std::int64_t j = 0; j < n; ++j)
        acc += dy[static_cast<std::size_t>(i * n + j)] *
               b[static_cast<std::size_t>(t * n + j)];
      want[static_cast<std::size_t>(i * k + t)] += acc;
    }
  expect_close(got, want, n);
}

TEST(GemmTnAcc, AccumulatesGradIntoNonzeroOutput) {
  // dB[t][j] += sum_i A[i][t] * dY[i][j] -- exactly matmul's dB term.
  const std::int64_t m = 17, k = 13, n = 29;
  const auto a = random_matrix(m, k, 6);
  const auto dy = random_matrix(m, n, 7);
  const auto init = random_matrix(k, n, 8);

  std::vector<float> got = init;
  gemm_tn_acc(m, k, n, a.data(), dy.data(), got.data());

  std::vector<float> want = init;
  for (std::int64_t t = 0; t < k; ++t)
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::int64_t i = 0; i < m; ++i)
        acc += a[static_cast<std::size_t>(i * k + t)] *
               dy[static_cast<std::size_t>(i * n + j)];
      want[static_cast<std::size_t>(t * n + j)] += acc;
    }
  expect_close(got, want, m);
}

// (m, n, t) shapes of the backward kernels: a row count that is not a
// multiple of the 4-row tile, column counts off the 32-column tile, and
// depths past and off the 256-deep cache block, then the VAE's own:
// the decoder's dh = dlogits . W^T (32 x 96 x 8000) and the latent
// layer's dz at latent 12 and 13 (12 + one condition column).
const Shape kBackwardShapes[] = {
    {5, 33, 300}, {7, 65, 513}, {3, 1, 257}, {1, 31, 600},
    {32, 96, 8000}, {32, 12, 96}, {32, 13, 96},
};

// Double-precision references, so the comparison tolerance only has to
// cover the kernels' own float rounding.
std::vector<float> naive_nt_acc(std::int64_t m, std::int64_t n, std::int64_t t,
                                const std::vector<float>& a,
                                const std::vector<float>& b,
                                std::vector<float> c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t tt = 0; tt < t; ++tt)
        acc += static_cast<double>(a[static_cast<std::size_t>(i * t + tt)]) *
               static_cast<double>(b[static_cast<std::size_t>(j * t + tt)]);
      c[static_cast<std::size_t>(i * n + j)] += static_cast<float>(acc);
    }
  return c;
}

std::vector<float> naive_tn_acc(std::int64_t p, std::int64_t m, std::int64_t n,
                                const std::vector<float>& a,
                                const std::vector<float>& b,
                                std::vector<float> c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t tt = 0; tt < p; ++tt)
        acc += static_cast<double>(a[static_cast<std::size_t>(tt * m + i)]) *
               static_cast<double>(b[static_cast<std::size_t>(tt * n + j)]);
      c[static_cast<std::size_t>(i * n + j)] += static_cast<float>(acc);
    }
  return c;
}

TEST(GemmNtAcc, MatchesNaiveOnEdgeAndVaeShapes) {
  std::uint64_t salt = 0;
  for (const Shape& s : kBackwardShapes) {
    // Shape reads as (m, n, t) here: C(m,n) += A(m,t) . B(n,t)^T.
    const std::int64_t m = s.m, n = s.k, t = s.n;
    const auto a = random_matrix(m, t, 600 + salt);
    const auto b = random_matrix(n, t, 700 + salt);
    const auto init = random_matrix(m, n, 800 + salt);
    ++salt;
    std::vector<float> got = init;
    gemm_nt_acc(static_cast<std::size_t>(m), static_cast<std::size_t>(n),
                static_cast<std::size_t>(t), a.data(), b.data(), got.data());
    SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                 " t=" + std::to_string(t));
    expect_close(got, naive_nt_acc(m, n, t, a, b, init), t);
  }
}

TEST(GemmTnAcc, MatchesNaiveOnEdgeAndVaeShapes) {
  std::uint64_t salt = 0;
  for (const Shape& s : kBackwardShapes) {
    // C(m,n) += A(p,m)^T . B(p,n) with the batch as the depth p: the
    // weight gradient dW += X^T . dY of the same layers.
    const std::int64_t p = s.m, m = s.k, n = s.n;
    const auto a = random_matrix(p, m, 900 + salt);
    const auto b = random_matrix(p, n, 1000 + salt);
    const auto init = random_matrix(m, n, 1100 + salt);
    ++salt;
    std::vector<float> got = init;
    gemm_tn_acc(static_cast<std::size_t>(p), static_cast<std::size_t>(m),
                static_cast<std::size_t>(n), a.data(), b.data(), got.data());
    SCOPED_TRACE("p=" + std::to_string(p) + " m=" + std::to_string(m) +
                 " n=" + std::to_string(n));
    expect_close(got, naive_tn_acc(p, m, n, a, b, init), p);
  }
}

// The OpenMP path must be a pure scheduling change: forcing parallel vs
// serial on a shape above the auto threshold gives bitwise-equal output
// (the k reduction is never split across threads).
TEST(GemmMode, ParallelIsBitwiseEqualToSerial) {
  const std::int64_t m = 128, k = 128, n = 512;  // 2*m*k*n > kAuto threshold
  const auto a = random_matrix(m, k, 9);
  const auto b = random_matrix(k, n, 10);

  std::vector<float> serial(static_cast<std::size_t>(m * n));
  std::vector<float> parallel(static_cast<std::size_t>(m * n));
  std::vector<float> automatic(static_cast<std::size_t>(m * n));
  gemm_nn(m, k, n, a.data(), b.data(), serial.data(), GemmMode::kSerial);
  gemm_nn(m, k, n, a.data(), b.data(), parallel.data(), GemmMode::kParallel);
  gemm_nn(m, k, n, a.data(), b.data(), automatic.data(), GemmMode::kAuto);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, automatic);

  std::vector<float> acc_s(static_cast<std::size_t>(m * k), 0.5F);
  std::vector<float> acc_p(static_cast<std::size_t>(m * k), 0.5F);
  gemm_nt_acc(m, k, n, serial.data(), b.data(), acc_s.data(),
              GemmMode::kSerial);
  gemm_nt_acc(m, k, n, serial.data(), b.data(), acc_p.data(),
              GemmMode::kParallel);
  EXPECT_EQ(acc_s, acc_p);

  std::vector<float> accb_s(static_cast<std::size_t>(k * n), -0.25F);
  std::vector<float> accb_p(static_cast<std::size_t>(k * n), -0.25F);
  gemm_tn_acc(m, k, n, a.data(), serial.data(), accb_s.data(),
              GemmMode::kSerial);
  gemm_tn_acc(m, k, n, a.data(), serial.data(), accb_p.data(),
              GemmMode::kParallel);
  EXPECT_EQ(accb_s, accb_p);

  // Both backward kernels on the edge and VAE shapes, each forced both
  // ways (kParallel also below the kAuto threshold).
  std::uint64_t salt = 0;
  for (const Shape& s : kBackwardShapes) {
    const auto sm = static_cast<std::size_t>(s.m);
    const auto sk = static_cast<std::size_t>(s.k);
    const auto sn = static_cast<std::size_t>(s.n);
    const auto x = random_matrix(s.m, s.n, 1200 + salt);
    const auto y = random_matrix(s.k, s.n, 1300 + salt);
    const auto z = random_matrix(s.m, s.k, 1400 + salt);
    ++salt;
    std::vector<float> nt_s(sm * sk, 0.5F), nt_p(sm * sk, 0.5F);
    gemm_nt_acc(sm, sk, sn, x.data(), y.data(), nt_s.data(),
                GemmMode::kSerial);
    gemm_nt_acc(sm, sk, sn, x.data(), y.data(), nt_p.data(),
                GemmMode::kParallel);
    EXPECT_EQ(nt_s, nt_p) << "nt m=" << s.m << " n=" << s.k << " t=" << s.n;
    std::vector<float> tn_s(sk * sn, -0.25F), tn_p(sk * sn, -0.25F);
    gemm_tn_acc(sm, sk, sn, z.data(), x.data(), tn_s.data(),
                GemmMode::kSerial);
    gemm_tn_acc(sm, sk, sn, z.data(), x.data(), tn_p.data(),
                GemmMode::kParallel);
    EXPECT_EQ(tn_s, tn_p) << "tn p=" << s.m << " m=" << s.k << " n=" << s.n;
  }
}

// Packing is a pure layout change: the packed overloads must be bitwise
// equal to streaming B directly, for every shape (degenerate, sub-tile,
// off-block) and in both overwrite and accumulate semantics. The
// decode-plane determinism contract (batched rows == per-walker rows)
// rests on this.
TEST(GemmPackedB, BitwiseEqualToUnpackedAcrossShapes) {
  std::uint64_t salt = 0;
  for (const Shape& s : kShapes) {
    const auto a = random_matrix(s.m, s.k, 300 + salt);
    const auto b = random_matrix(s.k, s.n, 400 + salt);
    ++salt;
    const auto sk = static_cast<std::size_t>(s.k);
    const auto sn = static_cast<std::size_t>(s.n);
    const auto sm = static_cast<std::size_t>(s.m);
    const PackedB packed = pack_b(sk, sn, b.data());
    ASSERT_TRUE(packed.valid());
    EXPECT_EQ(packed.k(), sk);
    EXPECT_EQ(packed.n(), sn);

    std::vector<float> plain(sm * sn, 3.0F);
    std::vector<float> via_pack(sm * sn, -9.0F);
    gemm_nn(sm, sk, sn, a.data(), b.data(), plain.data());
    gemm_nn(sm, sk, sn, a.data(), packed, via_pack.data());
    EXPECT_EQ(plain, via_pack) << "m=" << s.m << " k=" << s.k
                               << " n=" << s.n;

    const auto bias = random_matrix(s.m, s.n, 500 + salt);
    std::vector<float> acc_plain = bias;
    std::vector<float> acc_pack = bias;
    gemm_nn_acc(sm, sk, sn, a.data(), b.data(), acc_plain.data());
    gemm_nn_acc(sm, sk, sn, a.data(), packed, acc_pack.data());
    EXPECT_EQ(acc_plain, acc_pack)
        << "acc m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

// The batched decode GEMM varies only m across calls; a single PackedB
// reused at every row count must reproduce the per-row product exactly.
TEST(GemmPackedB, ReusedAcrossRowCountsMatchesRowAtATime) {
  const std::size_t k = 72, n = 260;  // decoder-ish: latent+cond -> hidden
  const auto b = random_matrix(static_cast<std::int64_t>(k),
                               static_cast<std::int64_t>(n), 77);
  const PackedB packed = pack_b(k, n, b.data());
  const auto a = random_matrix(16, static_cast<std::int64_t>(k), 78);

  // Reference: each row decoded alone (m = 1), as a plane-less walker
  // would.
  std::vector<float> row_at_a_time(16 * n);
  for (std::size_t r = 0; r < 16; ++r)
    gemm_nn(1, k, n, a.data() + r * k, packed, row_at_a_time.data() + r * n);

  for (const std::size_t m : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}, std::size_t{16}}) {
    std::vector<float> batched(m * n, -1.0F);
    gemm_nn(m, k, n, a.data(), packed, batched.data());
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(batched[i], row_at_a_time[i]) << "m=" << m << " flat " << i;
  }
}

// Whether this build's kernels round a*b + c once (fused) or twice, read
// off the kernel itself on operands where the two differ: a*b is
// 1 + 2^-11 + 2^-24, whose last bit is lost when the product is rounded
// alone. Whether gcc contracts a loop's a*b + c depends on how it
// vectorises or instruments that loop, so the reference below makes
// the kernels' choice explicitly instead of leaving it to the compiler.
bool kernels_fuse() {
  const float a = 1.0F + 0x1p-12F;
  const float c = -1.0F;
  float got = c;
  gemm_nn_acc(1, 1, 1, &a, &a, &got);
  const float fused = std::fma(a, a, c);
  volatile float product = a * a;
  const float split = product + c;
  EXPECT_NE(fused, split);
  EXPECT_TRUE(got == fused || got == split) << got;
  return got == fused;
}

// c[i][j] += sum over t of a_at(i, t) * b_at(t, j): one multiply-add per
// t in increasing order, starting from c's value, fused or not as the
// kernels are.
template <class AAt, class BAt>
std::vector<float> depth_ordered(std::size_t m, std::size_t k, std::size_t n,
                                 const AAt& a_at, const BAt& b_at,
                                 std::vector<float> c) {
  const bool fuse = kernels_fuse();
  std::vector<float> product(n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t t = 0; t < k; ++t) {
      const float av = a_at(i, t);
      float* row = c.data() + i * n;
      if (fuse) {
        for (std::size_t j = 0; j < n; ++j)
          row[j] = std::fma(av, b_at(t, j), row[j]);
      } else {
        for (std::size_t j = 0; j < n; ++j) product[j] = av * b_at(t, j);
        for (std::size_t j = 0; j < n; ++j) row[j] += product[j];
      }
    }
  return c;
}

// Every C element is one multiply-add chain in increasing depth order,
// starting from C's incoming value, so the kernels must match the
// depth-ordered loop bit for bit, packed or not, on any thread count.
// Shapes cover partial 8-row tiles, the 16- and 32-column strip tails
// and ragged ones, depth blocks and the decode shape (16 x 96 x 8000).
TEST(GemmNN, BitwiseEqualToDepthOrderedLoop) {
  std::uint64_t salt = 0;
  for (const std::int64_t k : {1, 96, 257, 600}) {
    for (const std::int64_t n : {1, 16, 47, 48, 49, 64, 96, 256, 8000}) {
      const auto b = random_matrix(k, n, 1500 + salt);
      const auto sk = static_cast<std::size_t>(k);
      const auto sn = static_cast<std::size_t>(n);
      const PackedB packed = pack_b(sk, sn, b.data());
      for (const std::int64_t m : {1, 7, 8, 9, 15, 16, 17, 32}) {
        const auto a = random_matrix(m, k, 1600 + salt++);
        const auto sm = static_cast<std::size_t>(m);
        const std::vector<float> want = depth_ordered(
            sm, sk, sn,
            [&](std::size_t i, std::size_t t) { return a[i * sk + t]; },
            [&](std::size_t t, std::size_t j) { return b[t * sn + j]; },
            std::vector<float>(sm * sn, 0.0F));
        for (const GemmMode mode : {GemmMode::kSerial, GemmMode::kParallel}) {
          std::vector<float> plain(sm * sn, 5.0F);
          std::vector<float> via_pack(sm * sn, -5.0F);
          gemm_nn(sm, sk, sn, a.data(), b.data(), plain.data(), mode);
          gemm_nn(sm, sk, sn, a.data(), packed, via_pack.data(), mode);
          const bool serial = mode == GemmMode::kSerial;
          ASSERT_EQ(plain, want) << "unpacked m=" << m << " k=" << k
                                 << " n=" << n << " serial=" << serial;
          ASSERT_EQ(via_pack, want) << "packed m=" << m << " k=" << k
                                    << " n=" << n << " serial=" << serial;
        }
      }
    }
  }
}

// The backward kernels on the same footing: C's incoming value, then the
// depth terms in increasing order.
TEST(GemmBackward, BitwiseEqualToDepthOrderedLoop) {
  std::uint64_t salt = 0;
  for (const std::int64_t depth : {1, 32, 257}) {
    for (const std::int64_t m : {1, 9, 17, 96}) {
      for (const std::int64_t n : {1, 16, 49, 96, 300}) {
        const auto sm = static_cast<std::size_t>(m);
        const auto sn = static_cast<std::size_t>(n);
        const auto sd = static_cast<std::size_t>(depth);
        const auto init = random_matrix(m, n, 1700 + salt);
        // gemm_nt_acc: C(m,n) += A(m,t) . B(n,t)^T.
        const auto a_nt = random_matrix(m, depth, 1800 + salt);
        const auto b_nt = random_matrix(n, depth, 1900 + salt);
        // gemm_tn_acc: C(m,n) += A(p,m)^T . B(p,n).
        const auto a_tn = random_matrix(depth, m, 2000 + salt);
        const auto b_tn = random_matrix(depth, n, 2100 + salt);
        ++salt;
        const std::vector<float> want_nt = depth_ordered(
            sm, sd, sn,
            [&](std::size_t i, std::size_t t) { return a_nt[i * sd + t]; },
            [&](std::size_t t, std::size_t j) { return b_nt[j * sd + t]; },
            init);
        const std::vector<float> want_tn = depth_ordered(
            sm, sd, sn,
            [&](std::size_t i, std::size_t t) { return a_tn[t * sm + i]; },
            [&](std::size_t t, std::size_t j) { return b_tn[t * sn + j]; },
            init);
        for (const GemmMode mode : {GemmMode::kSerial, GemmMode::kParallel}) {
          std::vector<float> nt = init;
          std::vector<float> tn = init;
          gemm_nt_acc(sm, sn, sd, a_nt.data(), b_nt.data(), nt.data(), mode);
          gemm_tn_acc(sd, sm, sn, a_tn.data(), b_tn.data(), tn.data(), mode);
          ASSERT_EQ(nt, want_nt) << "nt m=" << m << " n=" << n
                                 << " t=" << depth;
          ASSERT_EQ(tn, want_tn) << "tn p=" << depth << " m=" << m
                                 << " n=" << n;
        }
      }
    }
  }
}

// End-to-end through the autograd layer: forward values and both input
// gradients of matmul must match the naive reference.
TEST(TensorMatmul, ForwardAndBackwardMatchNaive) {
  const std::int64_t m = 5, k = 37, n = 19;
  const auto av = random_matrix(m, k, 11);
  const auto bv = random_matrix(k, n, 12);

  auto a = Tensor::from_data({m, k}, av, /*requires_grad=*/true);
  auto b = Tensor::from_data({k, n}, bv, /*requires_grad=*/true);
  auto y = matmul(a, b);
  expect_close(y.data(), naive_nn(m, k, n, av, bv), k);

  sum(y).backward();  // dY = all ones
  std::vector<float> want_da(static_cast<std::size_t>(m * k), 0.0F);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t t = 0; t < k; ++t)
      for (std::int64_t j = 0; j < n; ++j)
        want_da[static_cast<std::size_t>(i * k + t)] +=
            bv[static_cast<std::size_t>(t * n + j)];
  std::vector<float> want_db(static_cast<std::size_t>(k * n), 0.0F);
  for (std::int64_t t = 0; t < k; ++t)
    for (std::int64_t j = 0; j < n; ++j)
      for (std::int64_t i = 0; i < m; ++i)
        want_db[static_cast<std::size_t>(t * n + j)] +=
            av[static_cast<std::size_t>(i * k + t)];
  expect_close(a.grad(), want_da, n);
  expect_close(b.grad(), want_db, m);
}

TEST(NoGradGuard, SuppressesTapeConstruction) {
  auto a = Tensor::from_data({2, 3}, random_matrix(2, 3, 13),
                             /*requires_grad=*/true);
  auto b = Tensor::from_data({3, 2}, random_matrix(3, 2, 14),
                             /*requires_grad=*/true);
  {
    const NoGradGuard no_grad;
    auto y = matmul(a, b);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
  }
  auto y = matmul(a, b);  // guard restored: tape records again
  EXPECT_TRUE(y.requires_grad());
}

}  // namespace
}  // namespace dt::tensor
