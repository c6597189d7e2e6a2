// Edge tests for the fused MLP row kernels (ml/mlp_fused_kernels.hpp), the
// batched GEMM and vector_tanh.
//
// Every buffer a kernel reads or writes is mapped so that its last element
// sits flush against a PROT_NONE page: a read or write one element past
// the end faults deterministically instead of landing in whatever the
// allocator placed next. Each kernel runs against a scalar reference
// written with the statements of oracles::loss_and_gradient_reference, and
// the results must match bit for bit.
//
// The row kernels run once per instruction-set variant the host supports:
// the bodies are compiled here under each target_clones target of
// mlp_fused.cpp (this file is built with -ffp-contract=off, as that one
// is), plus the loader-dispatched entry points.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "guard_page.hpp"
#include "linalg/fast_math.hpp"
#include "linalg/gemm_batch.hpp"
#include "ml/mlp_fused_kernels.hpp"

// The wrappers below pass no vector values across calls.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace coloc::ml {
namespace {

namespace fk = fused_kernels;

using GuardedDoubles = testing_helpers::GuardedBuffer<double>;

/// Fills `buf` with uniform draws from [lo, hi).
void fill(GuardedDoubles& buf, Rng& rng, double lo, double hi) {
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf.data()[i] = rng.uniform(lo, hi);
}

/// Index of the first element whose bits differ, or -1.
long first_mismatch(const double* a, const double* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (std::memcmp(a + i, b + i, sizeof(double)) != 0)
      return static_cast<long>(i);
  return -1;
}

using OutputFn = double (*)(const double*, std::size_t, const double*, double,
                            std::size_t, std::size_t, const double*, double*,
                            std::size_t);
using BackwardFn = void (*)(const double*, std::size_t, const double*,
                            std::size_t, const double*, std::size_t,
                            std::size_t, double, double*, double*, double*,
                            double*, std::size_t);
using Gw1tFn = void (*)(const double*, std::size_t, const double*,
                        std::size_t, std::size_t, double*);

struct Variant {
  std::string name;
  OutputFn output;
  BackwardFn backward;
  Gw1tFn gw1t;
};

#define COLOC_KERNEL_VARIANT(suffix, attr)                                    \
  attr double output_##suffix(const double* act, std::size_t as,             \
                              const double* w2, double b2, std::size_t h,    \
                              std::size_t m, const double* z, double* out,   \
                              std::size_t os) {                              \
    return fk::output_rows_impl(act, as, w2, b2, h, m, z, out, os);          \
  }                                                                          \
  attr void backward_##suffix(const double* act, std::size_t as,             \
                              const double* err, std::size_t es,             \
                              const double* w2, std::size_t h,               \
                              std::size_t m, double inv_m, double* gw2,      \
                              double* gb1, double* gb2, double* da,          \
                              std::size_t ds) {                              \
    fk::backward_rows_impl(act, as, err, es, w2, h, m, inv_m, gw2, gb1, gb2, \
                           da, ds);                                          \
  }                                                                          \
  attr void gw1t_##suffix(const double* x, std::size_t inputs,               \
                          const double* da, std::size_t wide, std::size_t m, \
                          double* gw1t) {                                    \
    fk::gw1t_rows_impl(x, inputs, da, wide, m, gw1t);                        \
  }

COLOC_KERNEL_VARIANT(baseline, )
#ifdef COLOC_HAVE_ISA_VARIANTS
COLOC_KERNEL_VARIANT(haswell, COLOC_TARGET_HASWELL)
COLOC_KERNEL_VARIANT(x86_64_v4, COLOC_TARGET_X86_64_V4)
#endif
#undef COLOC_KERNEL_VARIANT

/// The dispatched entry points plus every clone body this host can run.
std::vector<Variant> host_variants() {
  std::vector<Variant> variants = {
      {"dispatched", &fk::output_rows, &fk::backward_rows, &fk::gw1t_rows},
      {"baseline", &output_baseline, &backward_baseline, &gw1t_baseline},
  };
#ifdef COLOC_HAVE_ISA_VARIANTS
  if (testing_helpers::host_runs_haswell()) {
    variants.push_back(
        {"haswell", &output_haswell, &backward_haswell, &gw1t_haswell});
  }
  if (testing_helpers::host_runs_x86_64_v4()) {
    variants.push_back(
        {"x86-64-v4", &output_x86_64_v4, &backward_x86_64_v4, &gw1t_x86_64_v4});
  }
#endif
  return variants;
}

constexpr std::size_t kRows[] = {1, 2, 7, 8, 9, 924, 2033};
constexpr std::size_t kMaxHidden = 24;

/// Hidden widths 1-24, plus widths past 32 units where the backward sweep
/// splits a plane into several row sweeps.
std::vector<std::size_t> hidden_widths() {
  std::vector<std::size_t> widths;
  for (std::size_t h = 1; h <= kMaxHidden; ++h) widths.push_back(h);
  for (const std::size_t h : {33u, 40u, 41u, 57u}) widths.push_back(h);
  return widths;
}
constexpr std::size_t kMaxInputs = 8;
constexpr std::size_t kMaxPlanes = 3;

// Scalar references: the statements of oracles::loss_and_gradient_reference.

double output_reference(const double* act, std::size_t as, const double* w2,
                        double b2, std::size_t hidden, std::size_t m,
                        const double* z, double* out, std::size_t os) {
  double loss = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double* a = act + r * as;
    double o = b2;
    for (std::size_t h = 0; h < hidden; ++h) o += w2[h] * a[h];
    if (z == nullptr) {
      out[r * os] = o;
    } else {
      const double err = o - z[r];
      out[r * os] = err;
      loss += 0.5 * err * err;
    }
  }
  return loss;
}

void backward_reference(const double* act, std::size_t as, const double* err,
                        std::size_t es, const double* w2, std::size_t hidden,
                        std::size_t m, double inv_m, double* gw2, double* gb1,
                        double* gb2, double* da, std::size_t ds) {
  for (std::size_t r = 0; r < m; ++r) {
    const double* a = act + r * as;
    const double d_out = err[r * es] * inv_m;
    *gb2 += d_out;
    for (std::size_t h = 0; h < hidden; ++h) {
      gw2[h] += d_out * a[h];
      const double d_a = d_out * w2[h] * (1.0 - a[h] * a[h]);
      gb1[h] += d_a;
      da[r * ds + h] = d_a;
    }
  }
}

void gw1t_reference(const double* x, std::size_t inputs, const double* da,
                    std::size_t wide, std::size_t m, double* gw1t) {
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t i = 0; i < inputs; ++i)
      for (std::size_t c = 0; c < wide; ++c)
        gw1t[i * wide + c] += da[r * wide + c] * x[r * inputs + i];
}

std::string shape(std::size_t m, std::size_t hidden, std::size_t planes,
                  std::size_t inputs = 0) {
  std::string s = "m=" + std::to_string(m) + " hidden=" +
                  std::to_string(hidden) + " planes=" +
                  std::to_string(planes);
  if (inputs != 0) s += " inputs=" + std::to_string(inputs);
  return s;
}

TEST(MlpFusedKernel, OutputRowsStayInsideBuffers) {
  const std::vector<Variant> variants = host_variants();
  Rng rng(0x0a11);
  for (const std::size_t m : kRows) {
    for (const std::size_t hidden : hidden_widths()) {
      for (std::size_t planes = 1; planes <= kMaxPlanes; ++planes) {
        const std::size_t wide = planes * hidden;
        GuardedDoubles act(m * wide), w2(wide), z(m), out(m * planes);
        fill(act, rng, -1.0, 1.0);
        fill(w2, rng, -1.0, 1.0);
        fill(z, rng, -2.0, 2.0);
        const double b2 = rng.uniform(-1.0, 1.0);
        for (const bool with_targets : {false, true}) {
          const double* zp = with_targets ? z.data() : nullptr;
          std::vector<double> want(m * planes);
          std::vector<double> want_loss(planes);
          for (std::size_t a = 0; a < planes; ++a)
            want_loss[a] = output_reference(act.data() + a * hidden, wide,
                                            w2.data() + a * hidden, b2,
                                            hidden, m, zp, want.data() + a,
                                            planes);
          for (const Variant& v : variants) {
            SCOPED_TRACE(v.name + " " + shape(m, hidden, planes) +
                         (with_targets ? " targets" : " inference"));
            for (std::size_t a = 0; a < planes; ++a) {
              const double loss =
                  v.output(act.data() + a * hidden, wide,
                           w2.data() + a * hidden, b2, hidden, m, zp,
                           out.data() + a, planes);
              ASSERT_EQ(first_mismatch(&loss, &want_loss[a], 1), -1);
            }
            ASSERT_EQ(first_mismatch(out.data(), want.data(), m * planes),
                      -1);
          }
        }
      }
    }
  }
}

TEST(MlpFusedKernel, BackwardRowsStayInsideBuffers) {
  const std::vector<Variant> variants = host_variants();
  Rng rng(0xba11);
  for (const std::size_t m : kRows) {
    const double inv_m = 1.0 / static_cast<double>(m);
    for (const std::size_t hidden : hidden_widths()) {
      for (std::size_t planes = 1; planes <= kMaxPlanes; ++planes) {
        const std::size_t wide = planes * hidden;
        GuardedDoubles act(m * wide), err(m * planes), w2(wide);
        GuardedDoubles gw2(wide), gb1(wide), gb2(planes), da(m * wide);
        fill(act, rng, -1.0, 1.0);
        fill(err, rng, -2.0, 2.0);
        fill(w2, rng, -1.0, 1.0);
        // Non-zero starting accumulators: the kernel must continue each
        // element's chain from whatever is in memory, overlapping chunks
        // included.
        std::vector<double> start(2 * wide + planes);
        for (double& s : start) s = rng.uniform(-0.5, 0.5);

        std::vector<double> want_gw2(start.begin(), start.begin() + wide);
        std::vector<double> want_gb1(start.begin() + wide,
                                     start.begin() + 2 * wide);
        std::vector<double> want_gb2(start.begin() + 2 * wide, start.end());
        std::vector<double> want_da(m * wide);
        for (std::size_t a = 0; a < planes; ++a)
          backward_reference(act.data() + a * hidden, wide, err.data() + a,
                             planes, w2.data() + a * hidden, hidden, m, inv_m,
                             want_gw2.data() + a * hidden,
                             want_gb1.data() + a * hidden, &want_gb2[a],
                             want_da.data() + a * hidden, wide);

        for (const Variant& v : variants) {
          SCOPED_TRACE(v.name + " " + shape(m, hidden, planes));
          std::memcpy(gw2.data(), start.data(), wide * sizeof(double));
          std::memcpy(gb1.data(), start.data() + wide, wide * sizeof(double));
          std::memcpy(gb2.data(), start.data() + 2 * wide,
                      planes * sizeof(double));
          for (std::size_t a = 0; a < planes; ++a)
            v.backward(act.data() + a * hidden, wide, err.data() + a, planes,
                       w2.data() + a * hidden, hidden, m, inv_m,
                       gw2.data() + a * hidden, gb1.data() + a * hidden,
                       gb2.data() + a, da.data() + a * hidden, wide);
          ASSERT_EQ(first_mismatch(gw2.data(), want_gw2.data(), wide), -1);
          ASSERT_EQ(first_mismatch(gb1.data(), want_gb1.data(), wide), -1);
          ASSERT_EQ(first_mismatch(gb2.data(), want_gb2.data(), planes), -1);
          ASSERT_EQ(first_mismatch(da.data(), want_da.data(), m * wide), -1);
        }
      }
    }
  }
}

TEST(MlpFusedKernel, Gw1tRowsStayInsideBuffers) {
  const std::vector<Variant> variants = host_variants();
  Rng rng(0x61e1);
  for (const std::size_t m : kRows) {
    for (std::size_t inputs = 1; inputs <= kMaxInputs; ++inputs) {
      GuardedDoubles x(m * inputs);
      fill(x, rng, -2.0, 2.0);
      for (const std::size_t hidden : hidden_widths()) {
        for (std::size_t planes = 1; planes <= kMaxPlanes; ++planes) {
          const std::size_t wide = planes * hidden;
          GuardedDoubles da(m * wide), gw1t(inputs * wide);
          fill(da, rng, -0.1, 0.1);
          std::vector<double> start(inputs * wide);
          for (double& s : start) s = rng.uniform(-0.5, 0.5);
          std::vector<double> want = start;
          gw1t_reference(x.data(), inputs, da.data(), wide, m, want.data());
          for (const Variant& v : variants) {
            SCOPED_TRACE(v.name + " " + shape(m, hidden, planes, inputs));
            gw1t.copy_from(start);
            v.gw1t(x.data(), inputs, da.data(), wide, m, gw1t.data());
            ASSERT_EQ(
                first_mismatch(gw1t.data(), want.data(), inputs * wide), -1);
          }
        }
      }
    }
  }
}

TEST(MlpFusedKernel, GemmBiasStaysInsideBuffers) {
  // The dispatched clone only: the GEMM kernels are private to
  // gemm_batch.cpp. Widths cover the register-chunk form (cols <= 32) with
  // every ragged tail, and the streaming form past it.
  Rng rng(0x6e33);
  for (const std::size_t m : kRows) {
    for (std::size_t inner = 1; inner <= kMaxInputs; ++inner) {
      GuardedDoubles x(m * inner);
      fill(x, rng, -2.0, 2.0);
      for (std::size_t cols = 1; cols <= kMaxHidden * kMaxPlanes; ++cols) {
        SCOPED_TRACE(shape(m, cols, 1, inner));
        GuardedDoubles w(inner * cols), bias(cols), out(m * cols);
        fill(w, rng, -1.0, 1.0);
        fill(bias, rng, -1.0, 1.0);
        std::vector<double> want(m * cols);
        for (std::size_t r = 0; r < m; ++r)
          for (std::size_t c = 0; c < cols; ++c) {
            double acc = bias.data()[c];
            for (std::size_t i = 0; i < inner; ++i)
              acc += x.data()[r * inner + i] * w.data()[i * cols + c];
            want[r * cols + c] = acc;
          }
        linalg::gemm_bias(x.data(), w.data(), bias.data(), out.data(), m,
                          inner, cols);
        ASSERT_EQ(first_mismatch(out.data(), want.data(), m * cols), -1);
      }
    }
  }
}

TEST(MlpFusedKernel, VectorTanhStaysInsideBuffer) {
  Rng rng(0x7a17);
  for (std::size_t n = 1; n <= 67; ++n) {
    SCOPED_TRACE(n);
    GuardedDoubles z(n);
    fill(z, rng, -4.0, 4.0);
    std::vector<double> want = z.to_vector();
    for (double& v : want) v = linalg::fast_tanh(v);
    linalg::vector_tanh(z.data(), n);
    ASSERT_EQ(first_mismatch(z.data(), want.data(), n), -1);
  }
}

TEST(MlpFusedKernel, GuardPageCatchesAnOverRead) {
  // The harness itself: touching one element past a guarded buffer must
  // fault, or the tests above prove nothing.
  GuardedDoubles buf(3);
  buf.data()[2] = 1.0;
  EXPECT_DEATH(
      {
        volatile double* p = buf.data();
        p[3] = p[2];
      },
      "");
}

}  // namespace
}  // namespace coloc::ml
