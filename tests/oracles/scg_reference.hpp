// Single-problem scaled conjugate gradient (Møller, Neural Networks 6(4),
// 1993): the one-objective-at-a-time loop that ml::scg_minimize_batch runs
// in lockstep. Every problem of a batched run must follow exactly the
// trajectory this loop takes on that problem alone.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "ml/scg.hpp"

namespace coloc::oracles {

/// Differentiable objective: fills `grad` and returns the value at `p`.
struct ScgObjective {
  std::size_t dimension = 0;
  std::function<double(std::span<const double> p, std::span<double> grad)>
      value_and_gradient;
};

/// Minimizes the objective starting from `initial` (size must match
/// objective.dimension). Reads every ScgOptions field except
/// progress_label, and records no metrics.
ml::ScgResult scg_minimize(const ScgObjective& objective,
                           std::span<const double> initial,
                           const ml::ScgOptions& options = {});

}  // namespace coloc::oracles
