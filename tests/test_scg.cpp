// Scaled conjugate gradient: the one-problem reference loop
// (oracles::scg_minimize) on classic objectives, and the lockstep batched
// minimizer (ml::scg_minimize_batch) held to that loop bit for bit.
#include "ml/scg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "oracles/scg_reference.hpp"

namespace coloc::ml {
namespace {

using oracles::scg_minimize;
using oracles::ScgObjective;

// f(x) = (x0-3)^2 + (x1+1)^2.
const ScgObjective kSimpleQuadratic{
    .dimension = 2,
    .value_and_gradient = [](std::span<const double> p, std::span<double> g) {
      g[0] = 2.0 * (p[0] - 3.0);
      g[1] = 2.0 * (p[1] + 1.0);
      return (p[0] - 3.0) * (p[0] - 3.0) + (p[1] + 1.0) * (p[1] + 1.0);
    }};

// f(x) = 0.5 x^T A x with condition number 1e4.
const ScgObjective kIllConditioned{
    .dimension = 2,
    .value_and_gradient = [](std::span<const double> p, std::span<double> g) {
      g[0] = 1e4 * p[0];
      g[1] = 1.0 * p[1];
      return 0.5 * (1e4 * p[0] * p[0] + p[1] * p[1]);
    }};

// Nonconvex benchmark: f = (1-x)^2 + 100(y-x^2)^2, minimum at (1, 1).
const ScgObjective kRosenbrock{
    .dimension = 2,
    .value_and_gradient = [](std::span<const double> p, std::span<double> g) {
      const double x = p[0], y = p[1];
      g[0] = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
      g[1] = 200.0 * (y - x * x);
      return (1.0 - x) * (1.0 - x) + 100.0 * (y - x * x) * (y - x * x);
    }};

// f(x) = x^2.
const ScgObjective kParabola{
    .dimension = 1,
    .value_and_gradient = [](std::span<const double> p, std::span<double> g) {
      g[0] = 2.0 * p[0];
      return p[0] * p[0];
    }};

// Bounded, wandering objective.
const ScgObjective kWandering{
    .dimension = 1,
    .value_and_gradient = [](std::span<const double> p, std::span<double> g) {
      g[0] = std::cos(p[0]);
      return std::sin(p[0]) + 2.0;
    }};

// f(x) = sum_i 0.5 (1 + i) (x_i - 1)^2 over 50 dimensions.
constexpr std::size_t kHighDim = 50;
const ScgObjective kHighDimQuadratic{
    .dimension = kHighDim,
    .value_and_gradient = [](std::span<const double> p, std::span<double> g) {
      double f = 0.0;
      for (std::size_t i = 0; i < kHighDim; ++i) {
        const double w = 1.0 + static_cast<double>(i);
        g[i] = w * (p[i] - 1.0);
        f += 0.5 * w * (p[i] - 1.0) * (p[i] - 1.0);
      }
      return f;
    }};

ScgOptions rosenbrock_options() {
  ScgOptions options;
  options.max_iterations = 5000;
  options.value_tolerance = 0.0;
  return options;
}

TEST(Scg, MinimizesSimpleQuadratic) {
  const ScgResult r =
      scg_minimize(kSimpleQuadratic, std::vector<double>{0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.solution[0], 3.0, 1e-5);
  EXPECT_NEAR(r.solution[1], -1.0, 1e-5);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(Scg, SolvesIllConditionedQuadratic) {
  ScgOptions options;
  options.max_iterations = 500;
  const ScgResult r =
      scg_minimize(kIllConditioned, std::vector<double>{1.0, 1.0}, options);
  EXPECT_NEAR(r.solution[0], 0.0, 1e-4);
  EXPECT_NEAR(r.solution[1], 0.0, 1e-3);
}

TEST(Scg, RosenbrockReachesValley) {
  const ScgResult r = scg_minimize(kRosenbrock, std::vector<double>{-1.2, 1.0},
                                   rosenbrock_options());
  EXPECT_LT(r.value, 1e-3);
}

TEST(Scg, AlreadyAtMinimumConvergesImmediately) {
  const ScgResult r = scg_minimize(kParabola, std::vector<double>{0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Scg, RespectsIterationBudget) {
  ScgOptions options;
  options.max_iterations = 5;
  const ScgResult r =
      scg_minimize(kWandering, std::vector<double>{0.3}, options);
  EXPECT_LE(r.iterations, 5u);
}

TEST(Scg, HighDimensionalQuadratic) {
  ScgOptions options;
  options.max_iterations = 2000;
  const ScgResult r = scg_minimize(
      kHighDimQuadratic, std::vector<double>(kHighDim, 0.0), options);
  for (double v : r.solution) EXPECT_NEAR(v, 1.0, 1e-3);
}

TEST(Scg, DimensionMismatchThrows) {
  ScgObjective obj{
      .dimension = 2,
      .value_and_gradient = [](std::span<const double>, std::span<double>) {
        return 0.0;
      }};
  EXPECT_THROW(scg_minimize(obj, std::vector<double>{1.0}),
               coloc::runtime_error);
}

TEST(Scg, MissingCallbackThrows) {
  ScgObjective obj;
  obj.dimension = 1;
  EXPECT_THROW(scg_minimize(obj, std::vector<double>{1.0}),
               coloc::runtime_error);
}

// ---------------------------------------------------------------------------
// scg_minimize_batch against the one-problem loop.
// ---------------------------------------------------------------------------

/// Runs `objective` from every start in one lockstep batch. forward()
/// caches each active problem's gradient; backward() hands it out and
/// checks the minimizer only asks for problems of the latest forward().
std::vector<ScgResult> run_batch(const ScgObjective& objective,
                                 const std::vector<std::vector<double>>& starts,
                                 const ScgOptions& options) {
  const std::size_t n = objective.dimension;
  const std::size_t count = starts.size();
  std::vector<double> initial;
  for (const auto& start : starts)
    initial.insert(initial.end(), start.begin(), start.end());
  std::vector<double> cached(n * count, 0.0);
  std::vector<char> fresh(count, 0);
  const ScgBatchObjective batch{
      .dimension = n,
      .count = count,
      .forward =
          [&](std::span<const std::size_t> active,
              const std::vector<double>& points, std::span<double> values) {
            std::fill(fresh.begin(), fresh.end(), 0);
            for (const std::size_t j : active) {
              values[j] = objective.value_and_gradient(
                  std::span<const double>(points.data() + j * n, n),
                  std::span<double>(cached.data() + j * n, n));
              fresh[j] = 1;
            }
          },
      .backward =
          [&](std::span<const std::size_t> active,
              std::vector<double>& grads) {
            for (const std::size_t j : active) {
              EXPECT_TRUE(fresh[j]) << "backward without forward: " << j;
              std::copy_n(cached.data() + j * n, n, grads.data() + j * n);
            }
          },
  };
  return scg_minimize_batch(batch, initial, options);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every problem of the batch must end exactly where the one-problem loop
/// ends on it alone: solution and value bits, iteration count, converged.
std::vector<ScgResult> expect_batch_matches_oracle(
    const ScgObjective& objective,
    const std::vector<std::vector<double>>& starts,
    const ScgOptions& options = {}) {
  const std::vector<ScgResult> batch = run_batch(objective, starts, options);
  EXPECT_EQ(batch.size(), starts.size());
  for (std::size_t j = 0; j < starts.size() && j < batch.size(); ++j) {
    SCOPED_TRACE("problem " + std::to_string(j));
    const ScgResult alone = scg_minimize(objective, starts[j], options);
    EXPECT_EQ(batch[j].iterations, alone.iterations);
    EXPECT_EQ(batch[j].converged, alone.converged);
    EXPECT_TRUE(same_bits(batch[j].value, alone.value));
    EXPECT_TRUE(same_bits(batch[j].gradient_norm, alone.gradient_norm));
    EXPECT_EQ(batch[j].solution.size(), alone.solution.size());
    for (std::size_t i = 0; i < alone.solution.size(); ++i)
      EXPECT_TRUE(same_bits(batch[j].solution[i], alone.solution[i]))
          << "coordinate " << i;
  }
  return batch;
}

/// The batch must stop problems at different iterations: at least two
/// distinct iteration counts, so one problem leaves the active set early.
void expect_staggered_stops(const std::vector<ScgResult>& batch) {
  std::size_t lo = batch.front().iterations, hi = lo;
  for (const ScgResult& r : batch) {
    lo = std::min(lo, r.iterations);
    hi = std::max(hi, r.iterations);
  }
  EXPECT_LT(lo, hi);
}

TEST(ScgBatch, MinimizesSimpleQuadratic) {
  const auto one = expect_batch_matches_oracle(kSimpleQuadratic, {{0.0, 0.0}});
  EXPECT_TRUE(one[0].converged);
  EXPECT_NEAR(one[0].solution[0], 3.0, 1e-5);
  EXPECT_NEAR(one[0].solution[1], -1.0, 1e-5);
  EXPECT_NEAR(one[0].value, 0.0, 1e-9);
  expect_staggered_stops(expect_batch_matches_oracle(
      kSimpleQuadratic, {{0.0, 0.0}, {3.0, -1.0}, {-40.0, 25.0}}));
}

TEST(ScgBatch, SolvesIllConditionedQuadratic) {
  ScgOptions options;
  options.max_iterations = 500;
  const auto one =
      expect_batch_matches_oracle(kIllConditioned, {{1.0, 1.0}}, options);
  EXPECT_NEAR(one[0].solution[0], 0.0, 1e-4);
  EXPECT_NEAR(one[0].solution[1], 0.0, 1e-3);
  expect_staggered_stops(expect_batch_matches_oracle(
      kIllConditioned, {{1.0, 1.0}, {0.0, 0.0}, {-3.0, 8.0}}, options));
}

TEST(ScgBatch, RosenbrockReachesValley) {
  const auto one = expect_batch_matches_oracle(kRosenbrock, {{-1.2, 1.0}},
                                               rosenbrock_options());
  EXPECT_LT(one[0].value, 1e-3);
  expect_staggered_stops(expect_batch_matches_oracle(
      kRosenbrock, {{-1.2, 1.0}, {1.0, 1.0}, {2.0, -1.5}},
      rosenbrock_options()));
}

TEST(ScgBatch, AlreadyAtMinimumConvergesImmediately) {
  const auto one = expect_batch_matches_oracle(kParabola, {{0.0}});
  EXPECT_TRUE(one[0].converged);
  EXPECT_EQ(one[0].iterations, 0u);
  const auto three =
      expect_batch_matches_oracle(kParabola, {{0.0}, {1.5}, {-7.0}});
  EXPECT_EQ(three[0].iterations, 0u);
  expect_staggered_stops(three);
}

TEST(ScgBatch, RespectsIterationBudget) {
  ScgOptions options;
  options.max_iterations = 5;
  const auto one = expect_batch_matches_oracle(kWandering, {{0.3}}, options);
  EXPECT_LE(one[0].iterations, 5u);
  const auto three = expect_batch_matches_oracle(
      kWandering, {{0.3}, {-1.0}, {2.5}}, options);
  for (const ScgResult& r : three) EXPECT_LE(r.iterations, 5u);
}

TEST(ScgBatch, HighDimensionalQuadratic) {
  ScgOptions options;
  options.max_iterations = 2000;
  const auto one = expect_batch_matches_oracle(
      kHighDimQuadratic, {std::vector<double>(kHighDim, 0.0)}, options);
  for (double v : one[0].solution) EXPECT_NEAR(v, 1.0, 1e-3);
  std::vector<double> mixed(kHighDim);
  for (std::size_t i = 0; i < kHighDim; ++i)
    mixed[i] = i % 2 == 0 ? -2.0 : 3.0;
  expect_staggered_stops(expect_batch_matches_oracle(
      kHighDimQuadratic,
      {std::vector<double>(kHighDim, 0.0), std::vector<double>(kHighDim, 1.0),
       mixed},
      options));
}

TEST(ScgBatch, DimensionMismatchThrows) {
  const ScgBatchObjective batch{
      .dimension = 2,
      .count = 2,
      .forward = [](std::span<const std::size_t>, const std::vector<double>&,
                    std::span<double>) {},
      .backward = [](std::span<const std::size_t>, std::vector<double>&) {},
  };
  EXPECT_THROW(scg_minimize_batch(batch, std::vector<double>{1.0, 2.0, 3.0}),
               coloc::runtime_error);
  ScgBatchObjective empty = batch;
  empty.count = 0;
  EXPECT_THROW(scg_minimize_batch(empty, std::vector<double>{}),
               coloc::runtime_error);
  ScgBatchObjective flat = batch;
  flat.dimension = 0;
  EXPECT_THROW(scg_minimize_batch(flat, std::vector<double>{}),
               coloc::runtime_error);
}

TEST(ScgBatch, MissingCallbackThrows) {
  ScgBatchObjective batch;
  batch.dimension = 1;
  batch.count = 1;
  batch.forward = [](std::span<const std::size_t>, const std::vector<double>&,
                     std::span<double>) {};
  EXPECT_THROW(scg_minimize_batch(batch, std::vector<double>{1.0}),
               coloc::runtime_error);
  batch.backward = [](std::span<const std::size_t>, std::vector<double>&) {};
  batch.forward = nullptr;
  EXPECT_THROW(scg_minimize_batch(batch, std::vector<double>{1.0}),
               coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::ml
