// Explicit SIMD lanes for the contraction-free target_clones kernels
// (gemm_batch, ml/mlp_fused_kernels).
//
// The kernels spell their vector arithmetic with GCC vector types instead
// of relying on the auto-vectorizer, so the lane layout — and therefore
// which scalar chain each lane replays — is fixed in the source, not
// chosen per clone. Every operation here is lane-wise (load, store, +, *),
// so a lane computes exactly what the scalar statement computes for that
// element; the width W only decides how many elements share an
// instruction. Under target_clones the same source compiles to zmm, ymm
// pairs or xmm quads; the rounding is identical in each.
//
// Ragged widths use overlapping chunks rather than scalar tails or
// padding: over n >= W columns the chunks tile [0, n) left to right and
// the last one is shifted left to end exactly at n. Columns covered twice
// are recomputed from the same inputs in the same order, so both writes
// store the same bits, and no chunk ever touches column n or beyond. A
// kernel that accumulates onto values already in memory must read both
// overlapping chunks' starting values before it stores either.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

// Vector-typed values never cross a call boundary here (everything is
// always_inline), so the psABI notes about passing them are moot.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace coloc::linalg::lanes {

#if defined(__GNUC__) && !defined(__clang__)
#define COLOC_LANES_INLINE __attribute__((always_inline)) inline
#else
#define COLOC_LANES_INLINE inline
#endif

using v8d = double __attribute__((vector_size(64)));
using v4d = double __attribute__((vector_size(32)));
using v2d = double __attribute__((vector_size(16)));

template <int W>
struct VecOf;
template <>
struct VecOf<8> {
  using type = v8d;
};
template <>
struct VecOf<4> {
  using type = v4d;
};
template <>
struct VecOf<2> {
  using type = v2d;
};
template <>
struct VecOf<1> {
  using type = double;
};
/// W consecutive doubles as one value (W = 1 is a plain double).
template <int W>
using Vec = typename VecOf<W>::type;

/// Unaligned load of p[0, W).
template <int W>
COLOC_LANES_INLINE Vec<W> load(const double* p) {
  Vec<W> v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Unaligned store to p[0, W).
template <int W>
COLOC_LANES_INLINE void store(double* p, const Vec<W>& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Widest lane count in {8, 4, 2, 1} that fits n >= 1 columns.
constexpr int width_for(std::size_t n) {
  return n >= 8 ? 8 : n >= 4 ? 4 : n >= 2 ? 2 : 1;
}

/// Number of W-wide chunks covering n columns.
constexpr std::size_t chunk_count(std::size_t n, int w) {
  return (n + static_cast<std::size_t>(w) - 1) / static_cast<std::size_t>(w);
}

/// First column of chunk j over n >= w columns: j * w, except that the
/// last chunk is shifted left to end at n (see the file comment).
constexpr std::size_t chunk_offset(std::size_t j, std::size_t n, int w) {
  return std::min(j * static_cast<std::size_t>(w),
                  n - static_cast<std::size_t>(w));
}

}  // namespace coloc::linalg::lanes

#pragma GCC diagnostic pop
