// Fused multi-restart MLP training (DESIGN §13): MlpRegressor::fit.
//
// fit stacks every restart's layer weights into one wide plane so each SCG
// iteration runs ONE batched GEMM per layer for all live restarts, instead
// of R separate small evaluations. The batched lockstep minimizer
// (scg_minimize_batch) masks converged restarts out of the active set, and
// splits evaluation into forward / deferred-backward phases so a rejected
// trial step never pays for a gradient it would discard.
//
// Bit-identity with training each restart alone (the sequential restart
// loop over the row-at-a-time loss/gradient, kept as a test oracle in
// tests/oracles) is structural, not approximate:
//  - Stacking restarts along the column axis never reorders any single
//    element's accumulation chain (gemm_batch.hpp), and vector_tanh is
//    bit-identical to scalar fast_tanh per element at any array length.
//  - The row kernels (mlp_fused_kernels.hpp) write every statement (output
//    reduction, error, loss terms, d_out / d_a, each gradient
//    accumulation) lane-wise with the exact expression shape of the
//    row-at-a-time reference loop, and every accumulator adds its per-row
//    terms in the reference order (rows ascending).
//  - The W1 gradient accumulates into a transposed scratch plane (inputs x
//    stacked-hidden, contiguous along the wide axis) and is transposed out
//    once per call — a pure permutation of where each independently
//    accumulated element is stored, with no arithmetic consequence.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/fast_math.hpp"
#include "linalg/gemm_batch.hpp"
#include "ml/mlp.hpp"
#include "ml/mlp_fused_kernels.hpp"
#include "ml/scg.hpp"
#include "obs/metrics.hpp"

// The lane vectors stay inside always_inline helpers and never cross a
// call boundary, so GCC's psABI notes about passing them do not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace coloc::ml {

// Function multi-versioning, same pattern as vector_tanh: the loader picks
// the widest clone the CPU supports. The TU is built with
// -ffp-contract=off (see ml/CMakeLists.txt) so no clone contracts mul+add
// into FMA — each variant differs from the baseline build only in lane
// count, never in rounding. The kernel bodies are in mlp_fused_kernels.hpp.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__)
#define COLOC_MLP_FUSED_CLONES \
  __attribute__((target_clones("arch=haswell", "arch=x86-64-v4", "default")))
#else
#define COLOC_MLP_FUSED_CLONES
#endif

namespace fused_kernels {

COLOC_MLP_FUSED_CLONES
double output_rows(const double* act, std::size_t act_stride,
                   const double* w2, double b2, std::size_t hidden,
                   std::size_t m, const double* z, double* out,
                   std::size_t out_stride) {
  return output_rows_impl(act, act_stride, w2, b2, hidden, m, z, out,
                          out_stride);
}

COLOC_MLP_FUSED_CLONES
void backward_rows(const double* act, std::size_t act_stride,
                   const double* err, std::size_t err_stride,
                   const double* w2, std::size_t hidden, std::size_t m,
                   double inv_m, double* g_w2, double* g_b1, double* g_b2,
                   double* da, std::size_t da_stride) {
  backward_rows_impl(act, act_stride, err, err_stride, w2, hidden, m, inv_m,
                     g_w2, g_b1, g_b2, da, da_stride);
}

COLOC_MLP_FUSED_CLONES
void gw1t_rows(const double* x, std::size_t inputs, const double* da,
               std::size_t wide, std::size_t m, double* gw1t) {
  gw1t_rows_impl(x, inputs, da, wide, m, gw1t);
}

}  // namespace fused_kernels

namespace {

// Per-fit training timers, each observed once per fit call.
// train_gemm_seconds is the whole fused forward + backward (it predates the
// per-phase split and keeps its name for the obs_report gate); the phase
// histograms partition it: gather + GEMM, tanh, output layer + loss, and
// the backward sweep with its W1 rebuild and gradient scatter.
struct FusedMetrics {
  obs::Histogram& kernel_seconds;
  obs::Histogram& gemm_seconds;
  obs::Histogram& tanh_seconds;
  obs::Histogram& output_seconds;
  obs::Histogram& backward_seconds;

  static FusedMetrics& get() {
    auto& registry = obs::Registry::global();
    static FusedMetrics metrics{
        registry.histogram("train_gemm_seconds"),
        registry.histogram("train_phase_gemm_seconds"),
        registry.histogram("train_phase_tanh_seconds"),
        registry.histogram("train_phase_output_seconds"),
        registry.histogram("train_phase_backward_seconds"),
    };
    return metrics;
  }
};

using Clock = std::chrono::steady_clock;

/// Staged d_a elements per backward tile: 32 KB, so the W1 rebuild reads
/// the rows the sweep just wrote from L1. Measured 1.6-2.0x over the old
/// one-pass sweep at 16 planes x 2033 rows, and 3.3-5.6x at one plane.
constexpr std::size_t kBackwardTile = 4096;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct PhaseSeconds {
  double gemm = 0.0;
  double tanh = 0.0;
  double output = 0.0;
  double backward = 0.0;

  void observe() const {
    FusedMetrics& metrics = FusedMetrics::get();
    metrics.kernel_seconds.observe(gemm + tanh + output + backward);
    metrics.gemm_seconds.observe(gemm);
    metrics.tanh_seconds.observe(tanh);
    metrics.output_seconds.observe(output);
    metrics.backward_seconds.observe(backward);
  }
};

// Batched forward/backward kernels over the stacked restart planes, plus
// the forward cache (tanh activations and per-row errors) that backward()
// consumes. All buffers are resized per call and reuse their capacity, so
// a fit allocates only on its first iteration.
class FusedEvaluator {
 public:
  FusedEvaluator(const linalg::Matrix& x, std::span<const double> z,
                 const MlpNetwork& layout, std::size_t count,
                 double weight_decay)
      : x_(x),
        z_(z),
        inputs_(layout.num_inputs()),
        hidden_(layout.num_hidden()),
        n_(layout.num_parameters()),
        decay_(weight_decay),
        w1_off_(layout.w1_offset()),
        b1_off_(layout.b1_offset()),
        w2_off_(layout.w2_offset()),
        b2_off_(layout.b2_offset()),
        slot_of_(count, 0) {}

  void forward(std::span<const std::size_t> active,
               const std::vector<double>& points, std::span<double> values) {
    const auto t0 = Clock::now();
    const std::size_t m = x_.rows();
    const std::size_t hidden = hidden_;
    const std::size_t planes = active.size();
    const std::size_t wide = planes * hidden;

    // Gather the active restarts' layers into stacked planes. W1 is
    // transposed (inputs x wide) so the GEMM streams contiguously along
    // the stacked hidden axis.
    w1t_.resize(inputs_, wide);
    b1_s_.resize(wide);
    w2_s_.resize(wide);
    b2_s_.resize(planes);
    for (std::size_t a = 0; a < planes; ++a) {
      const std::size_t j = active[a];
      slot_of_[j] = a;
      const double* pj = points.data() + j * n_;
      for (std::size_t h = 0; h < hidden; ++h)
        for (std::size_t i = 0; i < inputs_; ++i)
          w1t_(i, a * hidden + h) = pj[w1_off_ + h * inputs_ + i];
      std::memcpy(b1_s_.data() + a * hidden, pj + b1_off_,
                  hidden * sizeof(double));
      std::memcpy(w2_s_.data() + a * hidden, pj + w2_off_,
                  hidden * sizeof(double));
      b2_s_[a] = pj[b2_off_];
    }

    linalg::gemm_bias(x_, w1t_, b1_s_, act_);
    const auto t1 = Clock::now();
    linalg::vector_tanh(act_.data().data(), m * wide);
    const auto t2 = Clock::now();

    // Output layer per plane; the errors land interleaved (m x planes) so
    // backward() reads a plane's error column with stride planes.
    errs_.resize(m, planes);
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t a = 0; a < planes; ++a) {
      const std::size_t j = active[a];
      double loss =
          fused_kernels::output_rows(
              act_.data().data() + a * hidden, wide,
              w2_s_.data() + a * hidden, b2_s_[a], hidden, m, z_.data(),
              errs_.data().data() + a, planes) *
          inv_m;
      if (decay_ > 0.0) {
        const double* pj = points.data() + j * n_;
        double wnorm = 0.0;
        for (std::size_t i = 0; i < n_; ++i) wnorm += pj[i] * pj[i];
        loss += 0.5 * decay_ * wnorm;
      }
      values[j] = loss;
    }
    cached_points_ = &points;
    const auto t3 = Clock::now();
    phases_.gemm += seconds_between(t0, t1);
    phases_.tanh += seconds_between(t1, t2);
    phases_.output += seconds_between(t2, t3);
  }

  void backward(std::span<const std::size_t> active,
                std::vector<double>& grads) {
    const auto t0 = Clock::now();
    const std::size_t m = x_.rows();
    const std::size_t hidden = hidden_;
    const std::size_t planes = active.size();
    const std::size_t wide = planes * hidden;
    const std::size_t fwd_planes = errs_.cols();
    const double inv_m = 1.0 / static_cast<double>(m);

    // Two passes per tile of rows. The row sweep runs plane by plane,
    // reading each backward plane's forward slot (the subset may skip
    // restarts whose trial step was rejected) and staging the tile's d_a;
    // the W1 rebuild then accumulates gw1t (inputs x stacked hidden) from
    // the staged rows. Both kernels add onto their accumulators, so each
    // element's chain runs over all rows in ascending order regardless of
    // the tiling; the tile only keeps the staged d_a cache-resident.
    g_b2_.assign(planes, 0.0);
    g_w2_.assign(wide, 0.0);
    g_b1_.assign(wide, 0.0);
    gw1t_.resize(inputs_, wide);
    std::fill(gw1t_.data().begin(), gw1t_.data().end(), 0.0);
    const std::size_t tile = std::max<std::size_t>(8, kBackwardTile / wide);
    da_.resize(std::min(m, tile) * wide);
    const std::size_t fwd_wide = fwd_planes * hidden;
    for (std::size_t r0 = 0; r0 < m; r0 += tile) {
      const std::size_t rows = std::min(tile, m - r0);
      for (std::size_t b = 0; b < planes; ++b) {
        const std::size_t slot = slot_of_[active[b]];
        fused_kernels::backward_rows(
            act_.data().data() + r0 * fwd_wide + slot * hidden, fwd_wide,
            errs_.data().data() + r0 * fwd_planes + slot, fwd_planes,
            w2_s_.data() + slot * hidden, hidden, rows, inv_m,
            g_w2_.data() + b * hidden, g_b1_.data() + b * hidden, &g_b2_[b],
            da_.data() + b * hidden, wide);
      }
      fused_kernels::gw1t_rows(x_.data().data() + r0 * inputs_, inputs_,
                               da_.data(), wide, rows, gw1t_.data().data());
    }

    // Scatter the stacked accumulators back into each restart's packed
    // gradient row, then apply the weight-decay term exactly as the
    // reference loop's trailing pass does.
    for (std::size_t b = 0; b < planes; ++b) {
      const std::size_t j = active[b];
      double* gj = grads.data() + j * n_;
      for (std::size_t h = 0; h < hidden; ++h)
        for (std::size_t i = 0; i < inputs_; ++i)
          gj[w1_off_ + h * inputs_ + i] = gw1t_(i, b * hidden + h);
      std::memcpy(gj + b1_off_, g_b1_.data() + b * hidden,
                  hidden * sizeof(double));
      std::memcpy(gj + w2_off_, g_w2_.data() + b * hidden,
                  hidden * sizeof(double));
      gj[b2_off_] = g_b2_[b];
      if (decay_ > 0.0) {
        const double* pj = cached_points_->data() + j * n_;
        for (std::size_t i = 0; i < n_; ++i) gj[i] += decay_ * pj[i];
      }
    }
    phases_.backward += seconds_between(t0, Clock::now());
  }

  const PhaseSeconds& phase_seconds() const { return phases_; }

 private:
  const linalg::Matrix& x_;
  std::span<const double> z_;
  std::size_t inputs_;
  std::size_t hidden_;
  std::size_t n_;
  double decay_;
  std::size_t w1_off_;
  std::size_t b1_off_;
  std::size_t w2_off_;
  std::size_t b2_off_;

  // Forward cache (latest call).
  std::vector<std::size_t> slot_of_;
  const std::vector<double>* cached_points_ = nullptr;
  linalg::Matrix w1t_;
  std::vector<double> b1_s_;
  std::vector<double> w2_s_;
  std::vector<double> b2_s_;
  linalg::Matrix act_;
  linalg::Matrix errs_;

  // Backward scratch.
  std::vector<double> g_b2_;
  std::vector<double> g_w2_;
  std::vector<double> g_b1_;
  std::vector<double> da_;
  linalg::Matrix gw1t_;

  PhaseSeconds phases_;
};

}  // namespace

MlpRegressor MlpRegressor::fit(const linalg::Matrix& x,
                               std::span<const double> y,
                               const MlpOptions& options) {
  COLOC_CHECK_MSG(x.rows() == y.size(), "row/target count mismatch");
  COLOC_CHECK_MSG(x.rows() >= 2, "MLP needs at least two observations");

  linalg::Matrix design = x;
  Standardizer scaler = Standardizer::fit(design);
  scaler.transform(design);
  TargetScaler target = TargetScaler::fit(y);
  const std::vector<double> z = target.transform_all(y);

  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);

  // Restart 0 draws from Rng(options.seed), restart k > 0 from the
  // (seed, k)-derived stream, so each restart's start is a pure function of
  // its index.
  MlpNetwork net(x.cols(), options.hidden_units);
  const std::size_t n = net.num_parameters();
  std::vector<double> initial(restarts * n);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    std::uint64_t seed = options.seed;
    if (attempt != 0) {
      std::uint64_t s = options.seed ^ (0xa0761d6478bd642fULL *
                                        static_cast<std::uint64_t>(attempt));
      seed = splitmix64(s);
    }
    Rng rng(seed);
    net.initialize(rng);
    std::copy_n(net.parameters().data(), n, initial.data() + attempt * n);
  }

  FusedEvaluator evaluator(design, z, net, restarts, options.weight_decay);
  ScgBatchObjective objective{
      .dimension = n,
      .count = restarts,
      .forward =
          [&](std::span<const std::size_t> active,
              const std::vector<double>& points, std::span<double> values) {
            evaluator.forward(active, points, values);
          },
      .backward =
          [&](std::span<const std::size_t> active,
              std::vector<double>& grads) {
            evaluator.backward(active, grads);
          },
  };
  ScgOptions scg_options;
  scg_options.max_iterations = options.max_iterations;
  scg_options.gradient_tolerance = options.gradient_tolerance;
  const std::vector<ScgResult> results =
      scg_minimize_batch(objective, initial, scg_options);
  evaluator.phase_seconds().observe();

  // Final per-restart loss via the scalar loss(), then the strict-< scan:
  // ties go to the lowest restart index.
  std::vector<double> final_loss(restarts,
                                 std::numeric_limits<double>::infinity());
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    net.set_parameters(results[attempt].solution);
    final_loss[attempt] = net.loss(design, z, options.weight_decay);
  }
  std::size_t best = 0;
  for (std::size_t attempt = 1; attempt < restarts; ++attempt) {
    if (final_loss[attempt] < final_loss[best]) best = attempt;
  }

  net.set_parameters(results[best].solution);
  MlpRegressor model(std::move(net), std::move(scaler), std::move(target));
  model.training_loss_ = final_loss[best];
  model.iterations_used_ = results[best].iterations;
  return model;
}

}  // namespace coloc::ml
