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
//  * One pair of micro-kernels serves all three: 4-row x 32-column C
//    tiles accumulated in locals across a whole depth block, reading
//    their A tile through (row, depth) strides so A^T (gemm_tn_acc)
//    needs no copy.
//  * Cache blocking over depth (kc = 256) and columns. gemm_nn and
//    gemm_tn_acc stream kc x nc panels of B (packed into one contiguous
//    buffer when enough row tiles reuse them, m >= 32; skinny products
//    read B directly). gemm_nt_acc transposes one kc x 32 panel of B^T
//    into a stack buffer per (depth block, column tile) and streams it
//    through every row tile, so it never allocates.
//  * Every C element is one fused multiply-add chain in increasing depth
//    order, starting from C's incoming value.
//  * OpenMP above a FLOP threshold, parallelised over ROW TILES ONLY --
//    the depth reduction is never split, so every C element is
//    accumulated in exactly the same order on any thread count. Serial
//    and parallel paths are bitwise identical by construction (pinned in
//    test_gemm).
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
/// Panels are stored in exactly the order the unpacked kernel visits
/// them -- outer loop over column blocks (j0, width kNc), inner loop
/// over depth blocks (k0, depth kKc), each panel kb x nb row-major with
/// leading dimension nb -- so streaming a PackedB feeds the micro
/// kernels the same values in the same order as streaming B directly:
/// packed and unpacked products are bitwise identical. A PackedB is
/// immutable after pack_b(); concurrent readers need no synchronisation.
///
/// The nn-layer cache (Linear) keys a PackedB on the weight tensor's
/// version counter so decoder panels are packed once per weight version
/// (see DESIGN.md "Cross-walker decode plane").
class PackedB {
 public:
  PackedB() = default;
  [[nodiscard]] bool valid() const { return k_ > 0 && n_ > 0; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  /// Contiguous panel storage (panel-major; see class comment).
  [[nodiscard]] const float* panels() const { return panels_.data(); }

 private:
  friend PackedB pack_b(std::size_t k, std::size_t n, const float* b);
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<float> panels_;
};

/// Pack B(k,n) row-major into cache-block panels (see PackedB).
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
