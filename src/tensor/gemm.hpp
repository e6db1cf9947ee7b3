// Blocked single-precision GEMM kernels backing tensor::matmul.
//
// Three variants cover the forward pass and both backward contractions of
// Y = A.B without materialising a transposed copy of either operand:
//
//   gemm_nn      C  = A(m,k) . B(k,n)            forward
//   gemm_nt_acc  C += A(m,t) . B(n,t)^T          dA += dY . B^T
//   gemm_tn_acc  C += A(p,m)^T . B(p,n)          dB += A^T . dY
//
// Design (see DESIGN.md "Kernel layer"):
//  * One register tile serves all three: 8 rows x 48 columns of C held
//    in 24 sixteen-float vector accumulators across a whole depth block,
//    reading its A tile through (row, depth) strides so A^T
//    (gemm_tn_acc) needs no copy. Partial row tiles and 16- or 32-column
//    tails run the same vector code.
//  * B is consumed in 48-column strips, each a contiguous (depth x 48)
//    block: pre-packed (PackedB), packed per depth block (kc = 256) into
//    thread-local stack scratch (gemm_nn, gemm_tn_acc), or transposed into
//    it (gemm_nt_acc). No kernel allocates.
//  * Every C element is one multiply-add chain (fused where the target
//    has FMA) in increasing depth order, starting from C's incoming
//    value.
//  * One OpenMP region per call (above a FLOP threshold) splits the
//    (strip, row tile) pairs into contiguous ranges -- the depth
//    reduction is never split, so every C element is accumulated in
//    exactly the same order on any thread count. Serial and parallel
//    paths are bitwise identical by construction (pinned in test_gemm).
//
// All matrices are dense row-major, no aliasing between C and A/B.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dt::tensor {

enum class GemmMode {
  kAuto,      ///< parallel iff the FLOP count clears the threshold
  kSerial,    ///< force the single-threaded path
  kParallel,  ///< force the OpenMP path (still bitwise == serial)
};

/// 2*m*k*n FLOPs at or above which kAuto picks the OpenMP path.
inline constexpr std::size_t kGemmParallelFlops = std::size_t{1} << 22;

/// C(m,n) = A(m,k) . B(k,n). C is overwritten.
void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, GemmMode mode = GemmMode::kAuto);

/// C(m,n) += A(m,k) . B(k,n): like gemm_nn but C's initial contents are
/// kept (caller must have initialised them). Lets a fused linear layer
/// pre-fill C with the bias instead of paying a separate add pass.
void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode = GemmMode::kAuto);

/// Pre-packed B operand for gemm_nn/gemm_nn_acc.
///
/// Strip-major: the columns are cut into 48-wide strips, and each strip
/// is stored as one contiguous (k x 48) row-major block, so the kernels
/// stream it sequentially. The last strip is padded with zero columns to
/// a multiple of 16. Packing changes where B's values sit, not the
/// arithmetic: packed and unpacked products are bitwise identical. A
/// PackedB is immutable after pack_b(); concurrent readers need no
/// synchronisation.
///
/// The nn-layer cache (Linear) keys a PackedB on the weight tensor's
/// version counter, so decoder weights are packed once per weight
/// version.
class PackedB {
 public:
  PackedB() = default;
  [[nodiscard]] bool valid() const { return k_ > 0 && n_ > 0; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  /// Contiguous strip storage (strip-major; see class comment).
  [[nodiscard]] const float* strips() const { return strips_.data(); }

 private:
  friend PackedB pack_b(std::size_t k, std::size_t n, const float* b);
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<float> strips_;
};

/// Pack B(k,n) row-major into 48-column strips (see PackedB).
[[nodiscard]] PackedB pack_b(std::size_t k, std::size_t n, const float* b);

/// C(m,n) = A(m,k) . B(k,n) over a pre-packed B. Bitwise identical to
/// the unpacked overload for any m, thread count, and GemmMode.
void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const PackedB& b, float* c, GemmMode mode = GemmMode::kAuto);

/// C(m,n) += A(m,k) . B(k,n) over a pre-packed B.
void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const PackedB& b, float* c, GemmMode mode = GemmMode::kAuto);

/// C(m,n) += A(m,t) . B(n,t)^T, i.e. C[i][j] += sum_t A[i][t] * B[j][t].
void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                 const float* b, float* c, GemmMode mode = GemmMode::kAuto);

/// C(m,n) += A(p,m)^T . B(p,n), i.e. C[i][j] += sum_t A[t][i] * B[t][j].
void gemm_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode = GemmMode::kAuto);

}  // namespace dt::tensor
