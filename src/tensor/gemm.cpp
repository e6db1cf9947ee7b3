#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace dt::tensor {
namespace {

constexpr std::size_t kMr = 8;    // rows of the register tile
constexpr std::size_t kVl = 16;   // floats per vector
constexpr std::size_t kNv = 3;    // vectors per tile row
constexpr std::size_t kNr = kNv * kVl;  // tile columns = strip width (48)
constexpr std::size_t kKc = 256;  // depth cache block

// Sixteen floats: one zmm register under AVX-512. GCC maps the arithmetic
// on these types to whatever the target has (two ymm or four xmm
// operations without it), and contracts acc += a * b into an FMA exactly
// where it would contract the scalar expression. Vectors are moved with
// memcpy (one unaligned load/store) and never passed by value.
typedef float Vec __attribute__((vector_size(kVl * sizeof(float))));

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

/// Padded width of a strip `w` columns wide: whole vectors.
constexpr std::size_t padded(std::size_t w) {
  return (w + kVl - 1) / kVl * kVl;
}

/// The register tile: C(R, 16*NV) += A(R, kb) . B(kb, 16*NV). A element
/// (r, kk) is read at a[r * ars + kk * aks]: (lda, 1) walks A row-major,
/// (1, lda) walks A^T without a transposed copy (gemm_tn_acc). B is a
/// strip block with leading dimension ldb. The R * NV accumulators stay
/// in registers across the whole depth, and each C element gets one
/// multiply-add per kk in increasing kk order, starting from C.
template <std::size_t R, std::size_t NV>
void tile_kernel(std::size_t kb, const float* a, std::size_t ars,
                 std::size_t aks, const float* b, std::size_t ldb, float* c,
                 std::size_t ldc) {
  Vec acc[R][NV];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(&acc[r][v], c + r * ldc + v * kVl, sizeof(Vec));
  for (std::size_t kk = 0; kk < kb; ++kk) {
    Vec bv[NV];
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(&bv[v], b + kk * ldb + v * kVl, sizeof(Vec));
    const float* acol = a + kk * aks;
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const float ar = acol[r * ars];
#pragma GCC unroll 3
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] += ar * bv[v];
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < NV; ++v)
      std::memcpy(c + r * ldc + v * kVl, &acc[r][v], sizeof(Vec));
}

using TileFn = void (*)(std::size_t, const float*, std::size_t, std::size_t,
                        const float*, std::size_t, float*, std::size_t);

template <std::size_t R>
constexpr TileFn kRowTiles[kNv] = {tile_kernel<R, 1>, tile_kernel<R, 2>,
                                   tile_kernel<R, 3>};

// [rows - 1][vectors - 1]: partial row tiles and the 16- and 32-column
// strip tails run the same vector code as the full 8 x 48 tile.
constexpr const TileFn* kTiles[kMr] = {
    kRowTiles<1>, kRowTiles<2>, kRowTiles<3>, kRowTiles<4>,
    kRowTiles<5>, kRowTiles<6>, kRowTiles<7>, kRowTiles<8>};

/// C(rows, w) += A(rows, kb) . B(kb, w) for one tile of a strip block
/// padded to whole vectors (ldb >= padded(w), zeros past w). A width that
/// is not a whole number of vectors runs through a staged copy of C, so
/// the kernel never touches C past column w.
void run_tile(std::size_t rows, std::size_t w, std::size_t kb, const float* a,
              std::size_t ars, std::size_t aks, const float* b,
              std::size_t ldb, float* c, std::size_t ldc) {
  const std::size_t nv = padded(w) / kVl;
  const TileFn kernel = kTiles[rows - 1][nv - 1];
  if (w == nv * kVl) {
    kernel(kb, a, ars, aks, b, ldb, c, ldc);
    return;
  }
  alignas(64) float staged[kMr * kNr] = {};
  for (std::size_t r = 0; r < rows; ++r)
    std::memcpy(staged + r * kNr, c + r * ldc, w * sizeof(float));
  kernel(kb, a, ars, aks, b, ldb, staged, kNr);
  for (std::size_t r = 0; r < rows; ++r)
    std::memcpy(c + r * ldc, staged + r * kNr, w * sizeof(float));
}

/// Strip block of a row-major B(k, ldb): rows [k0, k0 + kb), columns
/// [j0, j0 + w), written kb x padded(w) with zeros past w.
void pack_rows(const float* b, std::size_t ldb, std::size_t k0,
               std::size_t kb, std::size_t j0, std::size_t w, float* dst) {
  const std::size_t wp = padded(w);
  for (std::size_t kk = 0; kk < kb; ++kk) {
    float* row = dst + kk * wp;
    std::memcpy(row, b + (k0 + kk) * ldb + j0, w * sizeof(float));
    std::fill(row + w, row + wp, 0.0f);
  }
}

/// C(m,n) += op(A)(m,k) . B(k,n), B delivered one strip block at a time:
/// strip_block(j0, w, k0, kb, panel) returns the kb x padded(w) block of
/// columns [j0, j0 + w) and depth [k0, k0 + kb), packed into `panel`
/// (kKc x kNr floats of thread-local scratch) or already packed
/// elsewhere.
///
/// Work items are (strip, row tile) pairs in strip-major order, and one
/// OpenMP region splits them into contiguous ranges: a thread packs each
/// strip it touches once per depth block and streams it from L1 through
/// its row tiles. The depth reduction is never split and depth blocks
/// run in increasing order, so every C element sees the same arithmetic
/// on any thread count.
template <class StripBlock>
void gemm_strips(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 std::size_t ars, std::size_t aks, float* c, bool parallel,
                 const StripBlock& strip_block) {
  const std::size_t row_tiles = (m + kMr - 1) / kMr;
  const std::size_t items = row_tiles * ((n + kNr - 1) / kNr);
#pragma omp parallel if (parallel)
  {
    std::size_t lo = 0;
    std::size_t hi = items;
#ifdef _OPENMP
    const auto id = static_cast<std::size_t>(omp_get_thread_num());
    const auto team = static_cast<std::size_t>(omp_get_num_threads());
    lo = items * id / team;
    hi = items * (id + 1) / team;
#endif
    alignas(64) float panel[kKc * kNr];
    while (lo < hi) {
      const std::size_t strip = lo / row_tiles;
      const std::size_t t0 = lo - strip * row_tiles;
      const std::size_t t1 = std::min(hi - strip * row_tiles, row_tiles);
      const std::size_t j0 = strip * kNr;
      const std::size_t w = std::min(kNr, n - j0);
      for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
        const std::size_t kb = std::min(kKc, k - k0);
        const float* block = strip_block(j0, w, k0, kb, panel);
        for (std::size_t ti = t0; ti < t1; ++ti) {
          const std::size_t i0 = ti * kMr;
          run_tile(std::min(kMr, m - i0), w, kb, a + i0 * ars + k0 * aks,
                   ars, aks, block, padded(w), c + i0 * n + j0, n);
        }
      }
      lo += t1 - t0;
    }
  }
}

/// C(m,n) += op(A)(m,k) . B(k,n) for a row-major B, packed strip block
/// by strip block on the fly (op(A) read through the tile strides).
void gemm_nn_impl(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  std::size_t ars, std::size_t aks, const float* b, float* c,
                  GemmMode mode) {
  gemm_strips(m, k, n, a, ars, aks, c, use_parallel(mode, 2 * m * k * n),
              [b, n](std::size_t j0, std::size_t w, std::size_t k0,
                     std::size_t kb, float* panel) {
                pack_rows(b, n, k0, kb, j0, w, panel);
                return static_cast<const float*>(panel);
              });
}

/// Packed-B product: the strip blocks are read in place from pack_b's
/// storage, so the hot loop does no packing and no allocation.
void gemm_nn_packed_impl(std::size_t m, std::size_t k, std::size_t n,
                         const float* a, const float* strips, float* c,
                         GemmMode mode) {
  gemm_strips(m, k, n, a, k, 1, c, use_parallel(mode, 2 * m * k * n),
              [strips, k](std::size_t j0, std::size_t w, std::size_t k0,
                          std::size_t, float*) {
                return strips + j0 * k + k0 * padded(w);
              });
}

}  // namespace

PackedB pack_b(std::size_t k, std::size_t n, const float* b) {
  PackedB packed;
  packed.k_ = k;
  packed.n_ = n;
  packed.strips_.resize(k * padded(n));
  // Strip j0 starts at j0 * k: every strip before it is kNr wide.
  for (std::size_t j0 = 0; j0 < n; j0 += kNr)
    pack_rows(b, n, 0, k, j0, std::min(kNr, n - j0),
              packed.strips_.data() + j0 * k);
  return packed;
}

void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const PackedB& b, float* c, GemmMode mode) {
  std::fill(c, c + m * n, 0.0f);
  gemm_nn_packed_impl(m, k, n, a, b.strips(), c, mode);
}

void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const PackedB& b, float* c, GemmMode mode) {
  gemm_nn_packed_impl(m, k, n, a, b.strips(), c, mode);
}

void gemm_nn(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, GemmMode mode) {
  std::fill(c, c + m * n, 0.0f);
  gemm_nn_impl(m, k, n, a, k, 1, b, c, mode);
}

void gemm_nn_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode) {
  // The tiles load C into their accumulators before the depth loop, so
  // skipping the zero fill accumulates on top of C.
  gemm_nn_impl(m, k, n, a, k, 1, b, c, mode);
}

void gemm_nt_acc(std::size_t m, std::size_t n, std::size_t t, const float* a,
                 const float* b, float* c, GemmMode mode) {
  // Strip block of B^T: panel[tt][j] = B[j0 + j][t0 + tt], each B row
  // read contiguously and scattered down one panel column.
  gemm_strips(m, t, n, a, t, 1, c, use_parallel(mode, 2 * m * n * t),
              [b, t](std::size_t j0, std::size_t w, std::size_t t0,
                     std::size_t kb, float* panel) {
                const std::size_t wp = padded(w);
                for (std::size_t j = 0; j < w; ++j) {
                  const float* brow = b + (j0 + j) * t + t0;
                  for (std::size_t tt = 0; tt < kb; ++tt)
                    panel[tt * wp + j] = brow[tt];
                }
                for (std::size_t tt = 0; tt < kb; ++tt)
                  std::fill(panel + tt * wp + w, panel + (tt + 1) * wp, 0.0f);
                return static_cast<const float*>(panel);
              });
}

void gemm_tn_acc(std::size_t p, std::size_t m, std::size_t n, const float* a,
                 const float* b, float* c, GemmMode mode) {
  // A^T is A read with swapped strides: element (i, t) is a[t * m + i].
  gemm_nn_impl(m, p, n, a, 1, m, b, c, mode);
}

}  // namespace dt::tensor
