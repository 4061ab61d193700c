#include "bo/lbfgs.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tunekit::bo {
namespace {

double rosenbrock(const std::vector<double>& x, std::vector<double>& g) {
  const double a = 1.0 - x[0];
  const double b = x[1] - x[0] * x[0];
  g[0] = -2.0 * a - 400.0 * x[0] * b;
  g[1] = 200.0 * b;
  return a * a + 100.0 * b * b;
}

TEST(ProjectedLbfgs, QuadraticStopsOnActiveBound) {
  // Unconstrained optimum at (2, -1); the box caps x0 at 1.
  const auto f = [](const std::vector<double>& x, std::vector<double>& g) {
    g[0] = 2.0 * (x[0] - 2.0);
    g[1] = 2.0 * (x[1] + 1.0);
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  LbfgsOptions opt;
  opt.lower = {0.0, -3.0};
  opt.upper = {1.0, 3.0};
  const auto res = projected_lbfgs(f, {0.5, 2.0}, opt);
  EXPECT_DOUBLE_EQ(res.x[0], 1.0);
  EXPECT_NEAR(res.x[1], -1.0, 1e-4);
  EXPECT_NEAR(res.value, 1.0, 1e-8);
  EXPECT_LT(res.evaluations, 20u);
}

TEST(ProjectedLbfgs, MinimizesRosenbrockInABox) {
  LbfgsOptions opt;
  opt.lower = {-2.0, -2.0};
  opt.upper = {2.0, 2.0};
  const auto res = projected_lbfgs(rosenbrock, {-1.2, 1.0}, opt);
  // The fixed stopping rule (projected gradient below 1e-3) ends within
  // about 1e-5 of the optimum here.
  EXPECT_NEAR(res.x[0], 1.0, 1e-4);
  EXPECT_NEAR(res.x[1], 1.0, 1e-4);
  EXPECT_LT(res.value, 1e-8);
  // A simplex needs hundreds of evaluations here.
  EXPECT_LT(res.evaluations, 150u);
}

TEST(ProjectedLbfgs, StartOutsideTheBoxIsProjectedIn) {
  std::vector<std::vector<double>> visited;
  const auto f = [&visited](const std::vector<double>& x, std::vector<double>& g) {
    visited.push_back(x);
    g[0] = 2.0 * x[0];
    g[1] = 2.0 * x[1];
    return x[0] * x[0] + x[1] * x[1];
  };
  LbfgsOptions opt;
  opt.lower = {-1.0, -1.0};
  opt.upper = {1.0, 1.0};
  const auto res = projected_lbfgs(f, {5.0, -7.0}, opt);
  ASSERT_FALSE(visited.empty());
  EXPECT_EQ(visited.front(), (std::vector<double>{1.0, -1.0}));
  for (const auto& x : visited) {
    for (double v : x) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
  EXPECT_LT(res.value, 1e-6);
}

TEST(ProjectedLbfgs, BacksOffFromARegionScoringFailure) {
  // (x - 1)^2, but every x > 0.8 scores 1e12 with a zero gradient (a Gram
  // that cannot be factored): the quasi-Newton steps overshoot into it and
  // the line search must back off toward the cliff edge from the left.
  std::size_t failed = 0;
  const auto f = [&failed](const std::vector<double>& x, std::vector<double>& g) {
    if (x[0] > 0.8) {
      ++failed;
      g[0] = 0.0;
      return 1e12;
    }
    g[0] = 2.0 * (x[0] - 1.0);
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  LbfgsOptions opt;
  opt.lower = {-5.0};
  opt.upper = {5.0};
  const auto res = projected_lbfgs(f, {-1.0}, opt);
  EXPECT_GT(failed, 0u);
  EXPECT_LE(res.x[0], 0.8);
  EXPECT_GT(res.x[0], 0.75);
  EXPECT_LT(res.value, 0.07);
}

TEST(ProjectedLbfgs, StopsAtTheIterationCap) {
  LbfgsOptions opt;
  opt.lower = {-2.0, -2.0};
  opt.upper = {2.0, 2.0};
  opt.max_iters = 3;
  const auto res = projected_lbfgs(rosenbrock, {-1.2, 1.0}, opt);
  EXPECT_EQ(res.iterations, 3u);
  EXPECT_GE(res.evaluations, 4u);
  std::vector<double> g(2);
  EXPECT_LT(res.value, rosenbrock({-1.2, 1.0}, g));
}

TEST(ProjectedLbfgs, ReportsEvaluationCount) {
  std::size_t count = 0;
  const auto f = [&count](const std::vector<double>& x, std::vector<double>& g) {
    ++count;
    return rosenbrock(x, g);
  };
  LbfgsOptions opt;
  opt.lower = {-2.0, -2.0};
  opt.upper = {2.0, 2.0};
  const auto res = projected_lbfgs(f, {0.0, 0.0}, opt);
  EXPECT_EQ(res.evaluations, count);
  EXPECT_GT(res.iterations, 0u);
}

TEST(ProjectedLbfgs, ValidatesInput) {
  EXPECT_THROW(projected_lbfgs(rosenbrock, {}), std::invalid_argument);
  LbfgsOptions opt;
  opt.lower = {0.0};  // arity mismatch with a 2-d start
  opt.upper = {1.0, 1.0};
  EXPECT_THROW(projected_lbfgs(rosenbrock, {1.0, 1.0}, opt), std::invalid_argument);
  EXPECT_THROW(projected_lbfgs(rosenbrock, {1.0, 1.0}), std::invalid_argument);  // no box
  LbfgsOptions empty;
  empty.lower = {0.0, 1.0};
  empty.upper = {1.0, 0.5};
  EXPECT_THROW(projected_lbfgs(rosenbrock, {0.5, 0.5}, empty), std::invalid_argument);
}

}  // namespace
}  // namespace tunekit::bo
