// Equivalence tests for the batched MLP fast paths introduced alongside
// the blocked linalg kernels: the GEMM-based forward/backward must be
// bit-identical to the rowwise reference loops, batched prediction must
// match per-row prediction, and parallel restarts must not change results.
#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace coloc::ml {
namespace {

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-2.0, 2.0);
  return m;
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.5, 1.5);
  return v;
}

TEST(MlpBatchedTest, LossAndGradientMatchesReferenceExactly) {
  Rng rng(101);
  const std::size_t shapes[][3] = {  // {rows, inputs, hidden}
      {2, 1, 1}, {7, 3, 5}, {33, 11, 13}, {64, 8, 20}, {129, 5, 17}};
  for (const auto& s : shapes) {
    const linalg::Matrix x = random_matrix(s[0], s[1], rng);
    const std::vector<double> y = random_vector(s[0], rng);
    MlpNetwork net(s[1], s[2]);
    Rng init(202);
    net.initialize(init);
    std::vector<double> g_fast(net.num_parameters());
    std::vector<double> g_ref(net.num_parameters());
    const double l_fast = net.loss_and_gradient(x, y, 1e-6, g_fast);
    const double l_ref = net.loss_and_gradient_reference(x, y, 1e-6, g_ref);
    // Bit-identical, not merely close: the batched path accumulates every
    // element in the reference loop's exact order.
    ASSERT_EQ(l_fast, l_ref) << s[0] << "/" << s[1] << "/" << s[2];
    for (std::size_t i = 0; i < g_fast.size(); ++i)
      ASSERT_EQ(g_fast[i], g_ref[i])
          << s[0] << "/" << s[1] << "/" << s[2] << " grad " << i;
  }
}

TEST(MlpBatchedTest, LossAndGradientMatchesWithZeroWeightDecay) {
  Rng rng(103);
  const linalg::Matrix x = random_matrix(21, 7, rng);
  const std::vector<double> y = random_vector(21, rng);
  MlpNetwork net(7, 9);
  Rng init(204);
  net.initialize(init);
  std::vector<double> g_fast(net.num_parameters());
  std::vector<double> g_ref(net.num_parameters());
  ASSERT_EQ(net.loss_and_gradient(x, y, 0.0, g_fast),
            net.loss_and_gradient_reference(x, y, 0.0, g_ref));
  for (std::size_t i = 0; i < g_fast.size(); ++i)
    ASSERT_EQ(g_fast[i], g_ref[i]);
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

TEST(MlpBatchedTest, ParallelRestartsMatchSerialRestarts) {
  // Each restart is a pure function of (seed, restart index), so the
  // trained model must be identical whether restarts run on the pool or
  // inline — and regardless of how many workers the host has.
  Rng rng(109);
  const linalg::Matrix x = random_matrix(48, 5, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = x(r, 1) * x(r, 2) - 0.5 * x(r, 4);

  MlpOptions serial;
  serial.hidden_units = 6;
  serial.max_iterations = 120;
  serial.restarts = 3;
  serial.parallel_restarts = false;
  MlpOptions parallel = serial;
  parallel.parallel_restarts = true;

  const MlpRegressor a = MlpRegressor::fit(x, y, serial);
  const MlpRegressor b = MlpRegressor::fit(x, y, parallel);
  ASSERT_EQ(a.training_loss(), b.training_loss());
  const auto pa = a.network().parameters();
  const auto pb = b.network().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
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
    MlpOptions sequential;
    sequential.hidden_units = 6;
    sequential.max_iterations = 90;
    sequential.restarts = restarts;
    sequential.fused_restarts = false;
    sequential.parallel_restarts = false;
    MlpOptions fused = sequential;
    fused.fused_restarts = true;

    const MlpRegressor a = MlpRegressor::fit(x, y, sequential);
    const MlpRegressor b = MlpRegressor::fit_fused(x, y, fused);
    ASSERT_EQ(a.training_loss(), b.training_loss());
    const auto pa = a.network().parameters();
    const auto pb = b.network().parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
      ASSERT_EQ(pa[i], pb[i]) << "parameter " << i;
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
        MlpOptions sequential;
        sequential.hidden_units = 10 + (inputs - 1) * 10 / 7;
        sequential.max_iterations = 60;
        sequential.restarts = restarts;
        sequential.fused_restarts = false;
        sequential.parallel_restarts = false;
        MlpOptions fused = sequential;
        fused.fused_restarts = true;

        const MlpRegressor a = MlpRegressor::fit(x, y, sequential);
        const MlpRegressor b = MlpRegressor::fit_fused(x, y, fused);
        ASSERT_EQ(a.training_loss(), b.training_loss());
        ASSERT_EQ(a.iterations_used(), b.iterations_used());
        const auto pa = a.network().parameters();
        const auto pb = b.network().parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i)
          ASSERT_EQ(pa[i], pb[i]) << "parameter " << i;
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

  MlpOptions sequential;
  sequential.hidden_units = 4;
  sequential.max_iterations = 4000;
  sequential.gradient_tolerance = 1e-3;  // loose: restarts stop early
  sequential.restarts = 5;
  sequential.fused_restarts = false;
  sequential.parallel_restarts = false;
  MlpOptions fused = sequential;
  fused.fused_restarts = true;

  const MlpRegressor a = MlpRegressor::fit(x, y, sequential);
  const MlpRegressor b = MlpRegressor::fit_fused(x, y, fused);
  ASSERT_EQ(a.training_loss(), b.training_loss());
  const auto pa = a.network().parameters();
  const auto pb = b.network().parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    ASSERT_EQ(pa[i], pb[i]) << "parameter " << i;
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
