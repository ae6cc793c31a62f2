#include "repro/math/roots.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "repro/common/ensure.hpp"

namespace repro::math {
namespace {

TEST(SolveBracketed, FindsSimpleRoot) {
  const double root =
      solve_bracketed([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-8);
}

TEST(SolveBracketed, AcceptsRootAtEndpoint) {
  const double root =
      solve_bracketed([](double x) { return x - 1.0; }, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(root, 1.0);
}

TEST(SolveBracketed, HandlesSteepFunction) {
  const double root = solve_bracketed(
      [](double x) { return std::exp(10.0 * x) - 100.0; }, 0.0, 1.0);
  EXPECT_NEAR(root, std::log(100.0) / 10.0, 1e-8);
}

TEST(SolveBracketed, RejectsNoSignChange) {
  EXPECT_THROW(
      solve_bracketed([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      Error);
}

TEST(NewtonRaphson, SolvesLinearSystem) {
  auto f = [](std::span<const double> x, std::span<double> r) {
    r[0] = 2.0 * x[0] + x[1] - 3.0;
    r[1] = x[0] - x[1] - 0.0;
  };
  std::vector<double> x = {0.0, 0.0};
  const NewtonResult r = newton_raphson(f, x);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], 1.0, 1e-8);
}

TEST(NewtonRaphson, SolvesNonlinearSystem) {
  // Intersection of a circle and a line: x²+y²=4, y=x.
  auto f = [](std::span<const double> x, std::span<double> r) {
    r[0] = x[0] * x[0] + x[1] * x[1] - 4.0;
    r[1] = x[1] - x[0];
  };
  std::vector<double> x = {1.0, 0.5};
  const NewtonResult r = newton_raphson(f, x);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], std::sqrt(2.0), 1e-7);
  EXPECT_NEAR(x[1], std::sqrt(2.0), 1e-7);
}

TEST(NewtonRaphson, RespectsProjection) {
  // Root at x=−1 and x=2; projection to x ≥ 0 must find 2.
  auto f = [](std::span<const double> x, std::span<double> r) {
    r[0] = (x[0] + 1.0) * (x[0] - 2.0);
  };
  auto project = [](std::span<double> x) {
    if (x[0] < 0.0) x[0] = 0.0;
  };
  std::vector<double> x = {0.5};
  const NewtonResult r = newton_raphson(f, x, project);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-7);
}

TEST(NewtonRaphson, ReportsNonConvergenceOnRootlessSystem) {
  auto f = [](std::span<const double> x, std::span<double> r) {
    r[0] = x[0] * x[0] + 1.0;
  };
  std::vector<double> x = {3.0};
  const NewtonResult r = newton_raphson(f, x);
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.residual_norm, 0.5);
}

TEST(NewtonRaphson, ReportsSingularJacobianWithoutThrowing) {
  // The projection pins x[1], so its Jacobian column stays zero: the
  // LU meets a zero pivot on the first step. That is non-convergence,
  // reported from the start point, not an exception.
  int calls = 0;
  auto f = [&](std::span<const double> x, std::span<double> r) {
    ++calls;
    r[0] = x[0] + x[1] - 3.0;
    r[1] = x[0] - 2.0 * x[1];
  };
  auto project = [](std::span<double> x) { x[1] = 1.0; };
  std::vector<double> x = {0.0, 5.0};
  NewtonResult r;
  ASSERT_NO_THROW(r = newton_raphson(f, x, project));
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(x[0], 0.0);
  EXPECT_EQ(x[1], 1.0);
  EXPECT_EQ(r.residual_norm, 2.0);
  EXPECT_EQ(calls, 2) << "one base point and one probe column";
}

TEST(NewtonRaphson, ConvergesFromPoorStartWithDamping) {
  auto f = [](std::span<const double> x, std::span<double> r) {
    r[0] = std::atan(x[0]);
  };
  // Plain Newton diverges for |x0| > ~1.39; damping must rescue it.
  std::vector<double> x = {10.0};
  const NewtonResult r = newton_raphson(f, x);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 0.0, 1e-8);
}

TEST(NewtonRaphson, RejectsEmptyProblem) {
  auto f = [](std::span<const double>, std::span<double>) {};
  EXPECT_THROW(newton_raphson(f, std::span<double>()), Error);
}

}  // namespace
}  // namespace repro::math
