#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace dt::tensor {
namespace {

constexpr std::size_t kMr = 4;     // row micro-tile
constexpr std::size_t kNr = 32;    // column micro-tile (vector registers)
constexpr std::size_t kKc = 256;   // depth cache block
constexpr std::size_t kNc = 1024;  // B-panel width cache block

bool use_parallel(GemmMode mode, std::size_t flops) {
  switch (mode) {
    case GemmMode::kSerial:
      return false;
    case GemmMode::kParallel:
      return true;
    case GemmMode::kAuto:
      return flops >= kGemmParallelFlops;
  }
  return false;
}

// The micro kernels read element (r, kk) of their A tile at
// a[r * ars + kk * aks]: (lda, 1) walks A row-major, (1, lda) walks A^T
// without a transposed copy (gemm_tn_acc).

/// Full micro-tile: C(4, 32) += A(4, kb) . B(kb, 32), accumulators kept
/// in registers across the whole kb depth.
inline void micro_4x32(std::size_t kb, const float* a, std::size_t ars,
                       std::size_t aks, const float* b, std::size_t ldb,
                       float* c, std::size_t ldc) {
  float acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t j = 0; j < kNr; ++j) acc[r][j] = c[r * ldc + j];
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* brow = b + kk * ldb;
    const float* acol = a + kk * aks;
    const float a0 = acol[0 * ars];
    const float a1 = acol[1 * ars];
    const float a2 = acol[2 * ars];
    const float a3 = acol[3 * ars];
    for (std::size_t j = 0; j < kNr; ++j) {
      const float bj = brow[j];
      acc[0][j] += a0 * bj;
      acc[1][j] += a1 * bj;
      acc[2][j] += a2 * bj;
      acc[3][j] += a3 * bj;
    }
  }
  for (std::size_t r = 0; r < kMr; ++r)
    for (std::size_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
}

/// Edge micro-tile for partial rows/columns; same per-element
/// accumulation order (kk sequential) as the full tile.
inline void micro_edge(std::size_t rows, std::size_t cols, std::size_t kb,
                       const float* a, std::size_t ars, std::size_t aks,
                       const float* b, std::size_t ldb, float* c,
                       std::size_t ldc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* arow = a + r * ars;
    float* crow = c + r * ldc;
    for (std::size_t kk = 0; kk < kb; ++kk) {
      const float ar = arow[kk * aks];
      const float* brow = b + kk * ldb;
      for (std::size_t j = 0; j < cols; ++j) crow[j] += ar * brow[j];
    }
  }
}

/// C(m,n) += op(A)(m,k) . B(k,n), op(A) read through the (ars, aks)
/// strides of the micro kernels.
void gemm_nn_impl(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  std::size_t ars, std::size_t aks, const float* b, float* c,
                  GemmMode mode) {
  const bool parallel = use_parallel(mode, 2 * m * k * n);
  // Packing pays off only when several row tiles reuse the panel; for
  // skinny A (the batch-1 decode GEMV) the extra copy would dominate.
  // Packing B costs one read + write + re-read of every panel; it pays
  // only when the panel is reused by many row tiles. Skinny products
  // (the decode-ahead batch: m = K) stream B directly instead.
  const bool pack = m >= 8 * kMr;
  std::vector<float> packed;
  if (pack) packed.resize(std::min(kKc, k) * std::min(kNc, n));

  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nb = std::min(kNc, n - j0);
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kb = std::min(kKc, k - k0);
      const float* bsrc = b + k0 * n + j0;
      std::size_t ldb = n;
      if (pack) {
        for (std::size_t kk = 0; kk < kb; ++kk)
          std::memcpy(&packed[kk * nb], b + (k0 + kk) * n + j0,
                      nb * sizeof(float));
        bsrc = packed.data();
        ldb = nb;
      }
      const auto row_tiles = static_cast<std::ptrdiff_t>((m + kMr - 1) / kMr);
      // Threads split ROW tiles only -- the kk reduction below stays
      // sequential per C element, so any thread count produces bitwise
      // identical results.
#pragma omp parallel for schedule(static) if (parallel)
      for (std::ptrdiff_t ti = 0; ti < row_tiles; ++ti) {
        const std::size_t i0 = static_cast<std::size_t>(ti) * kMr;
        const std::size_t rows = std::min(kMr, m - i0);
        const float* ablk = a + i0 * ars + k0 * aks;
        float* cblk = c + i0 * n + j0;
        for (std::size_t jj = 0; jj < nb; jj += kNr) {
          const std::size_t cols = std::min(kNr, nb - jj);
          if (rows == kMr && cols == kNr)
            micro_4x32(kb, ablk, ars, aks, bsrc + jj, ldb, cblk + jj, n);
          else
            micro_edge(rows, cols, kb, ablk, ars, aks, bsrc + jj, ldb,
                       cblk + jj, n);
        }
      }
    }
  }
}

/// Packed-B product: identical blocking, micro kernels, and per-element
/// accumulation order to gemm_nn_impl, but B panels come pre-packed
/// (pack_b) instead of being copied or streamed strided -- so results
/// are bitwise identical to the unpacked path while the hot loop does
/// no packing work and no allocation at all (hotlisted, see
/// scripts/lint/hotlist.txt).
void gemm_nn_packed_impl(std::size_t m, std::size_t k, std::size_t n,
                         const float* a, const float* panels, float* c,
                         GemmMode mode) {
  const bool parallel = use_parallel(mode, 2 * m * k * n);
  const float* panel = panels;
  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nb = std::min(kNc, n - j0);
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kb = std::min(kKc, k - k0);
      const float* bsrc = panel;
      const std::size_t ldb = nb;
      panel += kb * nb;
      const auto row_tiles = static_cast<std::ptrdiff_t>((m + kMr - 1) / kMr);
#pragma omp parallel for schedule(static) if (parallel)
      for (std::ptrdiff_t ti = 0; ti < row_tiles; ++ti) {
        const std::size_t i0 = static_cast<std::size_t>(ti) * kMr;
        const std::size_t rows = std::min(kMr, m - i0);
        const float* ablk = a + i0 * k + k0;
        float* cblk = c + i0 * n + j0;
        for (std::size_t jj = 0; jj < nb; jj += kNr) {
          const std::size_t cols = std::min(kNr, nb - jj);
          if (rows == kMr && cols == kNr)
            micro_4x32(kb, ablk, k, 1, bsrc + jj, ldb, cblk + jj, n);
          else
            micro_edge(rows, cols, kb, ablk, k, 1, bsrc + jj, ldb, cblk + jj,
                       n);
        }
      }
    }
  }
}

}  // namespace

PackedB pack_b(std::size_t k, std::size_t n, const float* b) {
  PackedB packed;
  packed.k_ = k;
  packed.n_ = n;
  packed.panels_.resize(k * n);
  float* dst = packed.panels_.data();
  // Panel order mirrors the gemm_nn_impl block loops exactly.
  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nb = std::min(kNc, n - j0);
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t kb = std::min(kKc, k - k0);
      for (std::size_t kk = 0; kk < kb; ++kk)
        std::memcpy(dst + kk * nb, b + (k0 + kk) * n + j0,
                    nb * sizeof(float));
      dst += kb * nb;
    }
  }
  return packed;
}

void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const PackedB& b, float* c, GemmMode mode) {
  std::fill(c, c + m * n, 0.0f);
  gemm_nn_packed_impl(m, k, n, a, b.panels(), c, mode);
}

void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const PackedB& b, float* c, GemmMode mode) {
  gemm_nn_packed_impl(m, k, n, a, b.panels(), c, mode);
}

void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, GemmMode mode) {
  std::fill(c, c + m * n, 0.0f);
  gemm_nn_impl(m, k, n, a, k, 1, b, c, mode);
}

void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode) {
  // The micro kernels load C tiles into their accumulators before the
  // depth loop, so skipping the zero fill accumulates on top of C.
  gemm_nn_impl(m, k, n, a, k, 1, b, c, mode);
}

void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                 const float* b, float* c, GemmMode mode) {
  const bool parallel = use_parallel(mode, 2 * m * n * t);
  const auto row_tiles = static_cast<std::ptrdiff_t>((m + kMr - 1) / kMr);
  // B^T panel for one (depth block, column tile): panel[tt][j] =
  // B[j0 + j][t0 + tt], streamed by every row tile like a gemm_nn panel.
  alignas(64) float panel[kKc * kNr];
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    const std::size_t cols = std::min(kNr, n - j0);
    for (std::size_t t0 = 0; t0 < t; t0 += kKc) {
      const std::size_t kb = std::min(kKc, t - t0);
      for (std::size_t j = 0; j < cols; ++j) {
        const float* brow = b + (j0 + j) * t + t0;
        for (std::size_t tt = 0; tt < kb; ++tt) panel[tt * kNr + j] = brow[tt];
      }
      // Threads split ROW tiles only; the tt reduction stays sequential
      // per C element, so any thread count gives bitwise equal results.
#pragma omp parallel for schedule(static) if (parallel)
      for (std::ptrdiff_t ti = 0; ti < row_tiles; ++ti) {
        const std::size_t i0 = static_cast<std::size_t>(ti) * kMr;
        const std::size_t rows = std::min(kMr, m - i0);
        const float* ablk = a + i0 * t + t0;
        float* cblk = c + i0 * n + j0;
        if (rows == kMr && cols == kNr)
          micro_4x32(kb, ablk, t, 1, panel, kNr, cblk, n);
        else
          micro_edge(rows, cols, kb, ablk, t, 1, panel, kNr, cblk, n);
      }
    }
  }
}

void gemm_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode) {
  // A^T is A read with swapped strides: element (i, t) is a[t * m + i].
  gemm_nn_impl(m, p, n, a, 1, m, b, c, mode);
}

}  // namespace dt::tensor
