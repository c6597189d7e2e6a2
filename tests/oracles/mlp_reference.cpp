#include "oracles/mlp_reference.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/fast_math.hpp"
#include "ml/dataset.hpp"
#include "oracles/scg_reference.hpp"

namespace coloc::oracles {

double loss_and_gradient_reference(const ml::MlpNetwork& net,
                                   const linalg::Matrix& x,
                                   std::span<const double> y,
                                   double weight_decay,
                                   std::span<double> grad) {
  const std::size_t inputs = net.num_inputs();
  const std::size_t hidden = net.num_hidden();
  const std::span<const double> params = net.parameters();
  COLOC_CHECK_MSG(x.rows() == y.size(), "batch size mismatch");
  COLOC_CHECK_MSG(x.cols() == inputs, "input width mismatch");
  COLOC_CHECK_MSG(grad.size() == params.size(), "gradient size mismatch");
  const std::size_t m = x.rows();
  COLOC_CHECK_MSG(m > 0, "empty batch");

  const double* w1 = params.data() + net.w1_offset();
  const double* b1 = params.data() + net.b1_offset();
  const double* w2 = params.data() + net.w2_offset();
  double* g_w1 = grad.data() + net.w1_offset();
  double* g_b1 = grad.data() + net.b1_offset();
  double* g_w2 = grad.data() + net.w2_offset();
  double& g_b2 = grad[net.b2_offset()];
  std::fill(grad.begin(), grad.end(), 0.0);

  std::vector<double> act(hidden);
  double loss = 0.0;
  const double inv_m = 1.0 / static_cast<double>(m);

  for (std::size_t r = 0; r < m; ++r) {
    const auto row = x.row(r);
    double out = params[net.b2_offset()];
    for (std::size_t h = 0; h < hidden; ++h) {
      double a = b1[h];
      const double* wrow = w1 + h * inputs;
      for (std::size_t i = 0; i < inputs; ++i) a += wrow[i] * row[i];
      act[h] = linalg::fast_tanh(a);
      out += w2[h] * act[h];
    }
    const double err = out - y[r];
    loss += 0.5 * err * err;

    // Backpropagate: dL/dout = err (per sample, scaled by 1/m at the end).
    const double d_out = err * inv_m;
    g_b2 += d_out;
    for (std::size_t h = 0; h < hidden; ++h) {
      g_w2[h] += d_out * act[h];
      const double d_a = d_out * w2[h] * (1.0 - act[h] * act[h]);
      g_b1[h] += d_a;
      double* grow = g_w1 + h * inputs;
      for (std::size_t i = 0; i < inputs; ++i) grow[i] += d_a * row[i];
    }
  }
  loss *= inv_m;

  if (weight_decay > 0.0) {
    double wnorm = 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
      wnorm += params[i] * params[i];
      grad[i] += weight_decay * params[i];
    }
    loss += 0.5 * weight_decay * wnorm;
  }
  return loss;
}

SequentialFit sequential_fit(const linalg::Matrix& x,
                             std::span<const double> y,
                             const ml::MlpOptions& options) {
  COLOC_CHECK_MSG(x.rows() == y.size(), "row/target count mismatch");
  COLOC_CHECK_MSG(x.rows() >= 2, "MLP needs at least two observations");

  linalg::Matrix design = x;
  ml::Standardizer scaler = ml::Standardizer::fit(design);
  scaler.transform(design);
  const ml::TargetScaler target = ml::TargetScaler::fit(y);
  const std::vector<double> z = target.transform_all(y);

  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);
  std::optional<SequentialFit> best;
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    std::uint64_t seed = options.seed;
    if (attempt != 0) {
      std::uint64_t s =
          options.seed ^ (0xa0761d6478bd642fULL *
                          static_cast<std::uint64_t>(attempt));
      seed = splitmix64(s);
    }
    Rng rng(seed);
    ml::MlpNetwork net(x.cols(), options.hidden_units);
    net.initialize(rng);

    const ScgObjective objective{
        .dimension = net.num_parameters(),
        .value_and_gradient =
            [&](std::span<const double> p, std::span<double> g) {
              net.set_parameters(p);
              return loss_and_gradient_reference(net, design, z,
                                                 options.weight_decay, g);
            },
    };
    const std::vector<double> p(net.parameters().begin(),
                                net.parameters().end());
    ml::ScgOptions scg_options;
    scg_options.max_iterations = options.max_iterations;
    scg_options.gradient_tolerance = options.gradient_tolerance;
    const ml::ScgResult res = scg_minimize(objective, p, scg_options);
    net.set_parameters(res.solution);
    const double loss = net.loss(design, z, options.weight_decay);
    // Strict < in restart order: ties go to the lowest index.
    if (!best || loss < best->training_loss)
      best = SequentialFit{std::move(net), loss, res.iterations};
  }
  return std::move(*best);
}

}  // namespace coloc::oracles
