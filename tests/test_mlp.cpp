#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ml/metrics.hpp"
#include "oracles/mlp_reference.hpp"

namespace coloc::ml {
namespace {

TEST(MlpNetwork, ParameterCount) {
  // 3 inputs, 5 hidden: W1 15 + b1 5 + w2 5 + b2 1 = 26.
  const MlpNetwork net(3, 5);
  EXPECT_EQ(net.num_parameters(), 26u);
}

TEST(MlpNetwork, ZeroWeightsGiveZeroOutput) {
  const MlpNetwork net(2, 4);
  EXPECT_DOUBLE_EQ(net.forward(std::vector<double>{1.0, -1.0}), 0.0);
}

TEST(MlpNetwork, GradientMatchesFiniteDifferences) {
  coloc::Rng rng(1);
  MlpNetwork net(2, 3);
  net.initialize(rng);
  linalg::Matrix x(5, 2);
  std::vector<double> y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = rng.normal();
  }
  std::vector<double> grad(net.num_parameters());
  const double decay = 1e-3;
  oracles::loss_and_gradient_reference(net, x, y, decay, grad);

  std::vector<double> params(net.parameters().begin(),
                             net.parameters().end());
  const double eps = 1e-6;
  for (std::size_t k = 0; k < params.size(); ++k) {
    auto probe = params;
    probe[k] += eps;
    net.set_parameters(probe);
    const double f_plus = net.loss(x, y, decay);
    probe[k] -= 2 * eps;
    net.set_parameters(probe);
    const double f_minus = net.loss(x, y, decay);
    net.set_parameters(params);
    const double fd = (f_plus - f_minus) / (2 * eps);
    EXPECT_NEAR(grad[k], fd, 1e-5) << "parameter " << k;
  }
}

TEST(MlpNetwork, LossAgreesWithLossAndGradient) {
  coloc::Rng rng(2);
  MlpNetwork net(3, 4);
  net.initialize(rng);
  linalg::Matrix x(7, 3);
  std::vector<double> y(7);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.normal();
    y[i] = rng.normal();
  }
  std::vector<double> grad(net.num_parameters());
  EXPECT_NEAR(oracles::loss_and_gradient_reference(net, x, y, 1e-4, grad),
              net.loss(x, y, 1e-4), 1e-12);
}

TEST(MlpRegressor, LearnsLinearFunction) {
  coloc::Rng rng(3);
  linalg::Matrix x(200, 2);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y[i] = 2.0 * x(i, 0) - x(i, 1) + 5.0;
  }
  const MlpRegressor m = MlpRegressor::fit(
      x, y, {.hidden_units = 8, .max_iterations = 500, .weight_decay = 1e-7});
  const auto pred = m.predict_all(x);
  EXPECT_LT(mean_percent_error(pred, y), 1.0);
}

TEST(MlpRegressor, LearnsNonlinearFunction) {
  // y = x0^2 + sin(3 x1) — beyond any linear model.
  coloc::Rng rng(4);
  linalg::Matrix x(400, 2);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y[i] = x(i, 0) * x(i, 0) + std::sin(3.0 * x(i, 1)) + 3.0;
  }
  const MlpRegressor m = MlpRegressor::fit(
      x, y,
      {.hidden_units = 16, .max_iterations = 1500, .weight_decay = 1e-7});
  const auto pred = m.predict_all(x);
  EXPECT_LT(mean_percent_error(pred, y), 2.0);
}

TEST(MlpRegressor, HandlesWildFeatureScales) {
  coloc::Rng rng(5);
  linalg::Matrix x(150, 2);
  std::vector<double> y(150);
  for (std::size_t i = 0; i < 150; ++i) {
    x(i, 0) = rng.uniform(1e5, 2e5);
    x(i, 1) = rng.uniform(1e-6, 2e-6);
    y[i] = 1e-4 * x(i, 0) + 1e7 * x(i, 1);
  }
  const MlpRegressor m = MlpRegressor::fit(
      x, y, {.hidden_units = 8, .max_iterations = 800});
  const auto pred = m.predict_all(x);
  EXPECT_LT(mean_percent_error(pred, y), 2.0);
}

TEST(MlpRegressor, DeterministicForSameSeed) {
  coloc::Rng rng(6);
  linalg::Matrix x(50, 1);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    y[i] = x(i, 0);
  }
  const MlpOptions opts{.hidden_units = 4, .max_iterations = 100,
                        .seed = 99};
  const MlpRegressor a = MlpRegressor::fit(x, y, opts);
  const MlpRegressor b = MlpRegressor::fit(x, y, opts);
  EXPECT_DOUBLE_EQ(a.predict(std::vector<double>{0.5}),
                   b.predict(std::vector<double>{0.5}));
}

TEST(MlpRegressor, PredictWidthMismatchThrows) {
  coloc::Rng rng(7);
  linalg::Matrix x(20, 2);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = x(i, 0);
  }
  const MlpRegressor m = MlpRegressor::fit(
      x, y, {.hidden_units = 2, .max_iterations = 50});
  EXPECT_THROW(m.predict(std::vector<double>{1.0}), coloc::runtime_error);
}

TEST(MlpRegressor, DescribeIncludesTopology) {
  coloc::Rng rng(8);
  linalg::Matrix x(20, 2);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    y[i] = x(i, 0);
  }
  const MlpRegressor m = MlpRegressor::fit(
      x, y, {.hidden_units = 3, .max_iterations = 50});
  EXPECT_NE(m.describe().find("hidden=3"), std::string::npos);
}

}  // namespace
}  // namespace coloc::ml
