// Reference MLP training: the row-at-a-time loss/gradient loop and the
// sequential restart loop over oracles::scg_minimize. ml::MlpRegressor::fit
// (the fused multi-restart trainer) must reproduce sequential_fit bit for
// bit: same per-restart seeds, same trajectories, same winner.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"
#include "ml/mlp.hpp"

namespace coloc::oracles {

/// Mean-squared-error loss over the batch plus 0.5*decay*||w||^2, and its
/// gradient with respect to the packed parameters (written into `grad`,
/// which must have net.num_parameters() entries). One row at a time, with
/// scalar fast_tanh: every accumulator adds its per-row term in ascending
/// row order, the order the fused trainer's kernels reproduce.
double loss_and_gradient_reference(const ml::MlpNetwork& net,
                                   const linalg::Matrix& x,
                                   std::span<const double> y,
                                   double weight_decay,
                                   std::span<double> grad);

/// The winning restart of a sequential fit, in standardized units.
struct SequentialFit {
  ml::MlpNetwork net;
  double training_loss = 0.0;
  std::size_t iterations = 0;
};

/// Standardizes x and y as MlpRegressor::fit does, then trains each restart
/// alone with scg_minimize over loss_and_gradient_reference, in restart
/// order. Restart 0 draws from Rng(seed); restart k > 0 from the stream
/// hashed from (seed, k). Each attempt is scored with MlpNetwork::loss and
/// a strict-< scan picks the winner, so ties go to the lowest index.
SequentialFit sequential_fit(const linalg::Matrix& x,
                             std::span<const double> y,
                             const ml::MlpOptions& options = {});

}  // namespace coloc::oracles
