#include "oracles/scg_reference.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace coloc::oracles {

ml::ScgResult scg_minimize(const ScgObjective& objective,
                           std::span<const double> initial,
                           const ml::ScgOptions& options) {
  COLOC_CHECK_MSG(objective.dimension > 0, "objective dimension must be > 0");
  COLOC_CHECK_MSG(initial.size() == objective.dimension,
                  "initial point dimension mismatch");
  COLOC_CHECK_MSG(static_cast<bool>(objective.value_and_gradient),
                  "objective callback not set");

  const std::size_t n = objective.dimension;
  std::vector<double> w(initial.begin(), initial.end());
  std::vector<double> grad(n, 0.0);
  std::vector<double> grad_new(n, 0.0);
  std::vector<double> p(n, 0.0);      // search direction
  std::vector<double> r(n, 0.0);      // negative gradient
  std::vector<double> w_trial(n, 0.0);
  std::vector<double> s(n, 0.0);      // Hessian-vector estimate

  double f = objective.value_and_gradient(w, grad);
  for (std::size_t i = 0; i < n; ++i) r[i] = -grad[i];
  p = r;

  double lambda = options.lambda0;
  double lambda_bar = 0.0;
  bool success = true;
  double delta = 0.0;
  std::size_t stall = 0;

  ml::ScgResult result;

  std::size_t k = 0;
  for (; k < options.max_iterations; ++k) {
    const double p_norm2 = linalg::dot(p, p);
    const double p_norm = std::sqrt(p_norm2);
    const double r_norm = linalg::norm2(r);
    if (r_norm < options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    if (p_norm < 1e-300) {
      // Degenerate direction; restart along the steepest descent.
      p = r;
      continue;
    }

    if (success) {
      // Second-order information via a finite difference along p.
      const double sigma = options.sigma0 / p_norm;
      for (std::size_t i = 0; i < n; ++i) w_trial[i] = w[i] + sigma * p[i];
      objective.value_and_gradient(w_trial, grad_new);
      for (std::size_t i = 0; i < n; ++i)
        s[i] = (grad_new[i] - grad[i]) / sigma;
      delta = linalg::dot(p, s);
    }

    // Scale the curvature estimate (Levenberg-Marquardt style).
    delta += (lambda - lambda_bar) * p_norm2;
    if (delta <= 0.0) {
      // Make the Hessian estimate positive definite.
      lambda_bar = 2.0 * (lambda - delta / p_norm2);
      delta = -delta + lambda * p_norm2;
      lambda = lambda_bar;
    }

    const double mu = linalg::dot(p, r);
    const double alpha = mu / delta;

    // Evaluate the comparison parameter.
    for (std::size_t i = 0; i < n; ++i) w_trial[i] = w[i] + alpha * p[i];
    const double f_trial = objective.value_and_gradient(w_trial, grad_new);
    const double big_delta = 2.0 * delta * (f - f_trial) / (mu * mu);

    if (big_delta >= 0.0) {
      // Successful step.
      const double f_prev = f;
      w = w_trial;
      f = f_trial;
      std::vector<double> r_new(n);
      for (std::size_t i = 0; i < n; ++i) r_new[i] = -grad_new[i];
      grad = grad_new;
      lambda_bar = 0.0;
      success = true;

      if ((k + 1) % n == 0) {
        // Periodic restart keeps directions conjugate on nonquadratics.
        p = r_new;
      } else {
        const double beta =
            (linalg::dot(r_new, r_new) - linalg::dot(r_new, r)) / mu;
        for (std::size_t i = 0; i < n; ++i)
          p[i] = r_new[i] + beta * p[i];
      }
      r = std::move(r_new);

      if (big_delta >= 0.75) lambda = std::max(lambda * 0.25, 1e-15);

      const double rel_impr =
          std::abs(f_prev - f) / std::max(1.0, std::abs(f_prev));
      stall = rel_impr < options.value_tolerance ? stall + 1 : 0;
      if (stall >= options.stall_patience) {
        result.converged = true;
        ++k;
        break;
      }
    } else {
      // Step rejected: raise damping and retry with the same direction.
      lambda_bar = lambda;
      success = false;
    }

    if (big_delta < 0.25) {
      lambda += delta * (1.0 - big_delta) / p_norm2;
      lambda = std::min(lambda, 1e12);  // keep the damping finite
    }
  }

  result.solution = std::move(w);
  result.value = f;
  result.gradient_norm = linalg::norm2(grad);
  result.iterations = k;
  if (result.gradient_norm < options.gradient_tolerance)
    result.converged = true;
  return result;
}

}  // namespace coloc::oracles
