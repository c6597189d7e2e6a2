// Equivalence tests for the batched MLP paths: the GEMM-based forward
// pass must be bit-identical to the rowwise loop, batched prediction must
// match per-row prediction, and the fused multi-restart trainer (fit) must
// reproduce the sequential restart loop of tests/oracles bit for bit.
#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "oracles/mlp_reference.hpp"

namespace coloc::ml {
namespace {

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-2.0, 2.0);
  return m;
}

TEST(MlpBatchedTest, ForwardAllMatchesRowwiseForward) {
  Rng rng(105);
  const linalg::Matrix x = random_matrix(37, 9, rng);
  MlpNetwork net(9, 13);
  Rng init(206);
  net.initialize(init);
  std::vector<double> batched(x.rows());
  net.forward_all(x, batched);
  for (std::size_t r = 0; r < x.rows(); ++r)
    ASSERT_EQ(batched[r], net.forward(x.row(r))) << "row " << r;
}

TEST(MlpBatchedTest, PredictAllMatchesPerRowPredict) {
  Rng rng(107);
  const linalg::Matrix x = random_matrix(60, 6, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = 2.0 * x(r, 0) - x(r, 3) + 0.1 * rng.uniform(-1.0, 1.0);
  MlpOptions options;
  options.hidden_units = 8;
  options.max_iterations = 150;
  const MlpRegressor model = MlpRegressor::fit(x, y, options);

  const linalg::Matrix queries = random_matrix(23, 6, rng);
  const std::vector<double> batched = model.predict_all(queries);
  ASSERT_EQ(batched.size(), queries.rows());
  for (std::size_t r = 0; r < queries.rows(); ++r)
    ASSERT_EQ(batched[r], model.predict(queries.row(r))) << "row " << r;
}

/// fit() must equal the sequential oracle in every bit: the winner's
/// training loss, its iteration count and every parameter.
void expect_matches_sequential(const linalg::Matrix& x,
                               std::span<const double> y,
                               const MlpOptions& options) {
  const oracles::SequentialFit a = oracles::sequential_fit(x, y, options);
  const MlpRegressor b = MlpRegressor::fit(x, y, options);
  ASSERT_EQ(a.training_loss, b.training_loss());
  ASSERT_EQ(a.iterations, b.iterations_used());
  const auto pa = a.net.parameters();
  const auto pb = b.network().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    ASSERT_EQ(pa[i], pb[i]) << "parameter " << i;
}

TEST(MlpBatchedTest, FusedRestartsBitIdenticalToSequential) {
  // The fused trainer stacks every restart's weight plane into batched
  // GEMMs; it must reproduce the sequential restart loop bit for bit at
  // any restart count — including counts past the 8-plane register-chunk
  // kernel (7 exercises the odd tail, 16 the streaming fallback).
  Rng rng(113);
  const linalg::Matrix x = random_matrix(72, 5, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = std::sin(x(r, 0)) + 0.5 * x(r, 2) * x(r, 4) - x(r, 3);

  for (const std::size_t restarts : {1u, 2u, 7u, 16u}) {
    SCOPED_TRACE(restarts);
    MlpOptions options;
    options.hidden_units = 6;
    options.max_iterations = 90;
    options.restarts = restarts;
    expect_matches_sequential(x, y, options);
  }
}

TEST(MlpBatchedTest, FusedMatchesSequentialAtZooWidths) {
  // The zoo's real shapes: 1-8 inputs with the hidden width the model zoo
  // gives that many features (10 + (features - 1) * 10 / 7, i.e. 10-20
  // units — ragged against every lane width), on row counts that are not
  // multiples of 8, single and multi-restart.
  Rng rng(117);
  for (const std::size_t rows : {61u, 203u}) {
    for (std::size_t inputs = 1; inputs <= 8; ++inputs) {
      const linalg::Matrix x = random_matrix(rows, inputs, rng);
      std::vector<double> y(rows);
      for (std::size_t r = 0; r < rows; ++r)
        y[r] = std::sin(x(r, 0)) + 0.3 * x(r, inputs - 1) * x(r, 0);
      for (const std::size_t restarts : {1u, 3u}) {
        SCOPED_TRACE(std::to_string(rows) + " rows, " +
                     std::to_string(inputs) + " inputs, " +
                     std::to_string(restarts) + " restarts");
        MlpOptions options;
        options.hidden_units = 10 + (inputs - 1) * 10 / 7;
        options.max_iterations = 60;
        options.restarts = restarts;
        expect_matches_sequential(x, y, options);
      }
    }
  }
}

TEST(MlpBatchedTest, FusedEarlyStopMaskingMatchesSequential) {
  // With a loose gradient tolerance and a generous iteration budget the
  // restarts converge at different iteration counts, so the fused batch
  // must mask each restart out as it stops — keeping the survivors'
  // arithmetic identical to a sequential loop where every restart runs
  // alone from the start.
  Rng rng(115);
  const linalg::Matrix x = random_matrix(50, 3, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = 1.0 + 2.0 * x(r, 0) - 0.3 * x(r, 1);

  MlpOptions options;
  options.hidden_units = 4;
  options.max_iterations = 4000;
  options.gradient_tolerance = 1e-3;  // loose: restarts stop early
  options.restarts = 5;
  expect_matches_sequential(x, y, options);
}

TEST(MlpBatchedTest, SingleRestartUnchangedByRestartCount) {
  // Restart 0 must draw from Rng(seed) exactly as a restarts=1 fit does,
  // so adding restarts can only ever improve the training loss.
  Rng rng(111);
  const linalg::Matrix x = random_matrix(40, 4, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) y[r] = x(r, 0) + x(r, 2);

  MlpOptions one;
  one.hidden_units = 5;
  one.max_iterations = 100;
  one.restarts = 1;
  MlpOptions three = one;
  three.restarts = 3;

  const MlpRegressor single = MlpRegressor::fit(x, y, one);
  const MlpRegressor multi = MlpRegressor::fit(x, y, three);
  EXPECT_LE(multi.training_loss(), single.training_loss());
}

}  // namespace
}  // namespace coloc::ml
