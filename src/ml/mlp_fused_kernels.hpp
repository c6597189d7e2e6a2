// Row kernels of the fused MLP trainer (DESIGN §13) — internal to src/ml
// and its tests.
//
// Each kernel has two parts:
//  - an always_inline body (`*_impl`) written with explicit lanes
//    (linalg/simd_lanes.hpp), and
//  - a plain entry point defined in mlp_fused.cpp under target_clones,
//    which the trainer and MlpNetwork::forward_all call.
// The bodies live here so a test can also compile them under each clone's
// target and run every variant the host supports, not just the one the
// loader picks. They must be compiled with -ffp-contract=off (as
// mlp_fused.cpp is): each lane then replays exactly the scalar statement
// the row-at-a-time reference loop (tests/oracles/mlp_reference.cpp)
// writes for that element, in the same order, so no variant differs from
// training each restart alone in any bit.
//
// Every kernel reads and writes only inside the extents its arguments
// describe: rows [0, m) and columns [0, width). Ragged widths use the
// overlapping-chunk rule of simd_lanes.hpp, and the output kernel's last
// row block repeats row m - 1 instead of reading row m.
#pragma once

#include <algorithm>
#include <cstddef>

#include "linalg/simd_lanes.hpp"

// Vector-typed values never cross a call boundary here (everything is
// always_inline), so the psABI notes about passing them are moot.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace coloc::ml::fused_kernels {

/// Output layer over one plane. For each row r < m, with a = act + r *
/// act_stride: o = b2 + w2[0]*a[0] + w2[1]*a[1] + ... (h ascending, one
/// rounded product and one rounded add per term). Without targets (z ==
/// nullptr) writes out[r * out_stride] = o and returns 0.0. With targets
/// writes the error o - z[r] instead and returns 0.0 + sum over ascending
/// rows of 0.5 * err * err.
double output_rows(const double* act, std::size_t act_stride,
                   const double* w2, double b2, std::size_t hidden,
                   std::size_t m, const double* z, double* out,
                   std::size_t out_stride);

/// Backward row sweep over one plane. For each row r < m: d_out =
/// err[r * err_stride] * inv_m, then for every hidden unit h
/// d_a = d_out * w2[h] * (1 - a[h]^2), stored to da[r * da_stride + h].
/// Adds, one row at a time in ascending order, d_out to *g_b2,
/// d_out * a[h] to g_w2[h] and d_a to g_b1[h]; a caller that splits the
/// rows into consecutive tiles therefore continues each element's chain
/// exactly.
void backward_rows(const double* act, std::size_t act_stride,
                   const double* err, std::size_t err_stride,
                   const double* w2, std::size_t hidden, std::size_t m,
                   double inv_m, double* g_w2, double* g_b1, double* g_b2,
                   double* da, std::size_t da_stride);

/// W1 gradient rebuild from the staged d_a rows: adds
/// da[r * wide + c] * x[r * inputs + i] to gw1t[i * wide + c] one row at a
/// time, r ascending, for every i < inputs and c < wide.
void gw1t_rows(const double* x, std::size_t inputs, const double* da,
               std::size_t wide, std::size_t m, double* gw1t);

namespace detail {

using linalg::lanes::load;
using linalg::lanes::store;
using linalg::lanes::v4d;
using linalg::lanes::Vec;

using mask4 = long long __attribute__((vector_size(32)));

template <int A, int B, int C, int D>
COLOC_LANES_INLINE v4d shuffle(const v4d& x, const v4d& y) {
#if defined(__clang__)
  return __builtin_shufflevector(x, y, A, B, C, D);
#else
  return __builtin_shuffle(x, y, mask4{A, B, C, D});
#endif
}

/// In-register 4x4 transpose: rows a..d in, columns out (lane k of the
/// j-th result is element j of input row k). Pure data movement.
COLOC_LANES_INLINE void transpose4(v4d& a, v4d& b, v4d& c, v4d& d) {
  const v4d t0 = shuffle<0, 4, 2, 6>(a, b);
  const v4d t1 = shuffle<1, 5, 3, 7>(a, b);
  const v4d t2 = shuffle<0, 4, 2, 6>(c, d);
  const v4d t3 = shuffle<1, 5, 3, 7>(c, d);
  a = shuffle<0, 1, 4, 5>(t0, t2);
  b = shuffle<0, 1, 4, 5>(t1, t3);
  c = shuffle<2, 3, 6, 7>(t0, t2);
  d = shuffle<2, 3, 6, 7>(t1, t3);
}

/// Adds the products w[j] * a_k[j], j = 0..3, to lane k of acc in j order:
/// four row vectors are multiplied lane-wise by w, transposed so each
/// vector holds one column's products across the four rows, then added.
COLOC_LANES_INLINE void add_column_products(v4d& acc, const double* const* a,
                                            std::size_t h, const v4d& w) {
  v4d p0 = load<4>(a[0] + h) * w;
  v4d p1 = load<4>(a[1] + h) * w;
  v4d p2 = load<4>(a[2] + h) * w;
  v4d p3 = load<4>(a[3] + h) * w;
  transpose4(p0, p1, p2, p3);
  acc += p0;
  acc += p1;
  acc += p2;
  acc += p3;
}

}  // namespace detail

// Lanes are rows: each block of 8 rows keeps its eight output chains in two
// 4-lane accumulators, and every hidden term is added to all eight at once.
// Products come from row-major loads, transposed in registers; the last
// (hidden % 4) columns are gathered lane by lane. Rows past m in the final
// block alias row m - 1; their lanes are computed and dropped.
COLOC_LANES_INLINE double output_rows_impl(const double* act,
                                           std::size_t act_stride,
                                           const double* w2, double b2,
                                           std::size_t hidden, std::size_t m,
                                           const double* z, double* out,
                                           std::size_t out_stride) {
  using detail::v4d;
  double loss = 0.0;
  for (std::size_t r0 = 0; r0 < m; r0 += 8) {
    const double* a[8];
    for (std::size_t k = 0; k < 8; ++k)
      a[k] = act + std::min(r0 + k, m - 1) * act_stride;
    v4d lo = {b2, b2, b2, b2};
    v4d hi = lo;
    std::size_t h = 0;
    for (; h + 4 <= hidden; h += 4) {
      const v4d w = detail::load<4>(w2 + h);
      detail::add_column_products(lo, a, h, w);
      detail::add_column_products(hi, a + 4, h, w);
    }
    for (; h < hidden; ++h) {
      const double wh = w2[h];
      lo += v4d{a[0][h], a[1][h], a[2][h], a[3][h]} * wh;
      hi += v4d{a[4][h], a[5][h], a[6][h], a[7][h]} * wh;
    }
    const std::size_t n = std::min<std::size_t>(8, m - r0);
    for (std::size_t k = 0; k < n; ++k) {
      const double o = k < 4 ? lo[k] : hi[k - 4];
      double* dst = out + (r0 + k) * out_stride;
      if (z == nullptr) {
        *dst = o;
      } else {
        const double err = o - z[r0 + k];
        *dst = err;
        loss += 0.5 * err * err;
      }
    }
  }
  return loss;
}

// Lanes are hidden units: G chunks of W units (overlapping at a ragged
// end) keep their g_w2 / g_b1 accumulators and w2 in registers across the
// whole row loop; each row adds one term per lane, rows ascending.
template <int W, int G>
COLOC_LANES_INLINE void backward_chunks(
    const double* act, std::size_t act_stride, const double* err,
    std::size_t err_stride, const double* w2, std::size_t hidden,
    std::size_t j0, std::size_t m, double inv_m, double* g_w2, double* g_b1,
    double* g_b2, double* da, std::size_t da_stride) {
  using V = detail::Vec<W>;
  std::size_t off[G];
  V w2v[G];
  V gw2[G];
  V gb1[G];
  for (int g = 0; g < G; ++g) {
    off[g] = linalg::lanes::chunk_offset(j0 + g, hidden, W);
    w2v[g] = detail::load<W>(w2 + off[g]);
    gw2[g] = detail::load<W>(g_w2 + off[g]);
    gb1[g] = detail::load<W>(g_b1 + off[g]);
  }
  double gb2 = g_b2 != nullptr ? *g_b2 : 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double d_out = err[r * err_stride] * inv_m;
    gb2 += d_out;
    const double* a = act + r * act_stride;
    double* d = da + r * da_stride;
    for (int g = 0; g < G; ++g) {
      const V av = detail::load<W>(a + off[g]);
      gw2[g] += d_out * av;
      const V d_a = d_out * w2v[g] * (1.0 - av * av);
      gb1[g] += d_a;
      detail::store<W>(d + off[g], d_a);
    }
  }
  for (int g = 0; g < G; ++g) {
    detail::store<W>(g_w2 + off[g], gw2[g]);
    detail::store<W>(g_b1 + off[g], gb1[g]);
  }
  if (g_b2 != nullptr) *g_b2 = gb2;
}

template <int W>
COLOC_LANES_INLINE void backward_group(std::size_t groups, const double* act,
                                       std::size_t act_stride,
                                       const double* err,
                                       std::size_t err_stride,
                                       const double* w2, std::size_t hidden,
                                       std::size_t j0, std::size_t m,
                                       double inv_m, double* g_w2,
                                       double* g_b1, double* g_b2, double* da,
                                       std::size_t da_stride) {
#define COLOC_BACKWARD_CHUNKS(G)                                             \
  backward_chunks<W, G>(act, act_stride, err, err_stride, w2, hidden, j0, m, \
                        inv_m, g_w2, g_b1, g_b2, da, da_stride)
  switch (groups) {
    case 1: COLOC_BACKWARD_CHUNKS(1); return;
    case 2: COLOC_BACKWARD_CHUNKS(2); return;
    case 3: COLOC_BACKWARD_CHUNKS(3); return;
    default: COLOC_BACKWARD_CHUNKS(4); return;
  }
#undef COLOC_BACKWARD_CHUNKS
}

// Hidden widths past 4 chunks sweep the rows once per group of up to 4
// chunks (32 units at W = 8); only the first group writes g_b2.
COLOC_LANES_INLINE void backward_rows_impl(
    const double* act, std::size_t act_stride, const double* err,
    std::size_t err_stride, const double* w2, std::size_t hidden,
    std::size_t m, double inv_m, double* g_w2, double* g_b1, double* g_b2,
    double* da, std::size_t da_stride) {
  const int w = linalg::lanes::width_for(hidden);
  const std::size_t chunks = linalg::lanes::chunk_count(hidden, w);
  for (std::size_t j0 = 0; j0 < chunks;) {
    // The shifted last chunk must load its starting values together with
    // the chunk it overlaps, before either is stored: never leave it alone
    // in a group.
    std::size_t groups = std::min<std::size_t>(4, chunks - j0);
    if (chunks - j0 - groups == 1) --groups;
    double* b2 = j0 == 0 ? g_b2 : nullptr;
#define COLOC_BACKWARD_GROUP(W)                                            \
  backward_group<W>(groups, act, act_stride, err, err_stride, w2, hidden, \
                    j0, m, inv_m, g_w2, g_b1, b2, da, da_stride)
    switch (w) {
      case 8: COLOC_BACKWARD_GROUP(8); break;
      case 4: COLOC_BACKWARD_GROUP(4); break;
      case 2: COLOC_BACKWARD_GROUP(2); break;
      default: COLOC_BACKWARD_GROUP(1); break;
    }
#undef COLOC_BACKWARD_GROUP
    j0 += groups;
  }
}

// Lanes are stacked hidden columns: each W-column chunk of every input row
// of gw1t (INNER rows at a time) accumulates in registers across the whole
// row loop and is stored once. d_a loads stay inside row r's [c, c + W).
template <int INNER, int W>
COLOC_LANES_INLINE void gw1t_chunks(const double* x, std::size_t x_stride,
                                    const double* da, std::size_t wide,
                                    std::size_t m, double* gw1t) {
  using V = detail::Vec<W>;
  const std::size_t chunks = linalg::lanes::chunk_count(wide, W);
  // The shifted last chunk overlaps the one before it, which is stored
  // first; read its starting values up front.
  const std::size_t c_last = linalg::lanes::chunk_offset(chunks - 1, wide, W);
  V last[INNER];
  for (int i = 0; i < INNER; ++i)
    last[i] = detail::load<W>(gw1t + static_cast<std::size_t>(i) * wide +
                              c_last);
  for (std::size_t j = 0; j < chunks; ++j) {
    const std::size_t c = linalg::lanes::chunk_offset(j, wide, W);
    V acc[INNER];
    for (int i = 0; i < INNER; ++i)
      acc[i] = j + 1 == chunks ? last[i]
                               : detail::load<W>(
                                     gw1t + static_cast<std::size_t>(i) * wide +
                                     c);
    for (std::size_t r = 0; r < m; ++r) {
      const V d = detail::load<W>(da + r * wide + c);
      const double* xr = x + r * x_stride;
#pragma GCC unroll 8
      for (int i = 0; i < INNER; ++i) acc[i] += d * xr[i];
    }
    for (int i = 0; i < INNER; ++i)
      detail::store<W>(gw1t + static_cast<std::size_t>(i) * wide + c,
                       acc[i]);
  }
}

template <int INNER>
COLOC_LANES_INLINE void gw1t_inner(const double* x, std::size_t x_stride,
                                   const double* da, std::size_t wide,
                                   std::size_t m, double* gw1t) {
  switch (linalg::lanes::width_for(wide)) {
    case 8: gw1t_chunks<INNER, 8>(x, x_stride, da, wide, m, gw1t); return;
    case 4: gw1t_chunks<INNER, 4>(x, x_stride, da, wide, m, gw1t); return;
    case 2: gw1t_chunks<INNER, 2>(x, x_stride, da, wide, m, gw1t); return;
    default: gw1t_chunks<INNER, 1>(x, x_stride, da, wide, m, gw1t); return;
  }
}

// Inputs are taken 8 at a time (the zoo never has more than 8).
COLOC_LANES_INLINE void gw1t_rows_impl(const double* x, std::size_t inputs,
                                       const double* da, std::size_t wide,
                                       std::size_t m, double* gw1t) {
  for (std::size_t i0 = 0; i0 < inputs; i0 += 8) {
    const double* xi = x + i0;
    double* gi = gw1t + i0 * wide;
    switch (std::min<std::size_t>(8, inputs - i0)) {
      case 1: gw1t_inner<1>(xi, inputs, da, wide, m, gi); break;
      case 2: gw1t_inner<2>(xi, inputs, da, wide, m, gi); break;
      case 3: gw1t_inner<3>(xi, inputs, da, wide, m, gi); break;
      case 4: gw1t_inner<4>(xi, inputs, da, wide, m, gi); break;
      case 5: gw1t_inner<5>(xi, inputs, da, wide, m, gi); break;
      case 6: gw1t_inner<6>(xi, inputs, da, wide, m, gi); break;
      case 7: gw1t_inner<7>(xi, inputs, da, wide, m, gi); break;
      default: gw1t_inner<8>(xi, inputs, da, wide, m, gi); break;
    }
  }
}

}  // namespace coloc::ml::fused_kernels

#pragma GCC diagnostic pop
