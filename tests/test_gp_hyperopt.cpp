// The GP hyperparameter search: the analytic gradient of its objective,
// its cost in evaluations, and numerical corner cases that must end in a
// fitted model (or the warned keep-previous fallback), never an abort.

#include <gtest/gtest.h>

#include <cmath>

#include "bo/gp.hpp"
#include "common/rng.hpp"

namespace tunekit::bo {
namespace {

struct Data {
  linalg::Matrix x;
  std::vector<double> y;
};

/// A smooth function of the first two coordinates, the rest nearly inert.
Data smooth_nd(std::size_t n, std::size_t d, std::uint64_t seed) {
  tunekit::Rng rng(seed);
  Data out{linalg::Matrix(n, d), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      out.x(i, k) = rng.uniform();
      v += (k < 2 ? 1.0 : 0.05) * std::sin(4.0 * out.x(i, k) + static_cast<double>(k));
    }
    out.y[i] = v + 0.02 * rng.normal();
  }
  return out;
}

/// Mean 0, sample standard deviation 1 — what the GP hands its search.
std::vector<double> standardized(std::vector<double> y) {
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double var = 0.0;
  for (double v : y) var += (v - mean) * (v - mean);
  const double sd = std::sqrt(var / static_cast<double>(y.size() - 1));
  for (double& v : y) v = (v - mean) / sd;
  return y;
}

/// Inside the search box (with a little slack for exp/log round trips).
void expect_usable(const GaussianProcess& gp, const std::vector<double>& probe) {
  ASSERT_TRUE(gp.fitted());
  const auto& hp = gp.hyperparams();
  EXPECT_GE(hp.signal_variance, 1e-4 * 0.999);
  EXPECT_LE(hp.signal_variance, 1e4 * 1.001);
  EXPECT_GE(hp.noise_variance, 1e-8 * 0.999);
  EXPECT_LE(hp.noise_variance, 1.001);
  for (double ls : hp.lengthscales) {
    EXPECT_GE(ls, 1e-2 * 0.999);
    EXPECT_LE(ls, 1e2 * 1.001);
  }
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
  const auto p = gp.predict(probe);
  EXPECT_TRUE(std::isfinite(p.mean));
  EXPECT_TRUE(std::isfinite(p.variance));
  EXPECT_GE(p.variance, 0.0);
}

class GpObjective : public ::testing::TestWithParam<KernelKind> {};

TEST_P(GpObjective, GradientMatchesCentralDifferences) {
  const auto data = smooth_nd(14, 3, 11);
  const auto y = standardized(data.y);
  PairwiseGram kernel(GetParam(), data.x);
  // Every coordinate away from its prior mean, the noise large enough to
  // matter: the signal-variance, lengthscale, noise and prior terms all
  // contribute.
  const std::vector<double> theta{std::log(1.7), std::log(0.25), std::log(0.9),
                                  std::log(2.5), std::log(3e-2)};
  std::vector<double> grad;
  const double f0 = gp_neg_log_posterior(kernel, y, theta, grad);
  ASSERT_LT(f0, 1e12);
  ASSERT_EQ(grad.size(), theta.size());

  const double h = 1e-5;
  std::vector<double> scratch;
  for (std::size_t j = 0; j < theta.size(); ++j) {
    auto up = theta, down = theta;
    up[j] += h;
    down[j] -= h;
    const double fd = (gp_neg_log_posterior(kernel, y, up, scratch) -
                       gp_neg_log_posterior(kernel, y, down, scratch)) /
                      (2.0 * h);
    EXPECT_NEAR(grad[j], fd, 1e-5 * std::abs(fd)) << "coordinate " << j;
  }
}

TEST_P(GpObjective, IsNegativeLmlPlusLengthscalePrior) {
  const auto data = smooth_nd(12, 2, 12);
  const auto y = standardized(data.y);
  const std::vector<double> theta{std::log(0.8), std::log(0.2), std::log(3.0),
                                  std::log(1e-3)};
  PairwiseGram kernel(GetParam(), data.x);
  std::vector<double> grad;
  const double f = gp_neg_log_posterior(kernel, y, theta, grad);

  GaussianProcess gp(GetParam());
  GpHyperparams hp;
  hp.signal_variance = 0.8;
  hp.lengthscales = {0.2, 3.0};
  hp.noise_variance = 1e-3;
  gp.set_hyperparams(hp);
  gp.fit(data.x, data.y);
  double prior = 0.0;
  for (double ls : hp.lengthscales) {
    const double z = std::log(ls) - std::log(0.5);
    prior += 0.5 * z * z;
  }
  EXPECT_NEAR(f, -gp.log_marginal_likelihood() + prior, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GpObjective,
                         ::testing::Values(KernelKind::RBF, KernelKind::Matern32,
                                           KernelKind::Matern52),
                         [](const auto& info) { return to_string(info.param); });

TEST(GpHyperopt, ObjectiveValidatesArity) {
  const auto data = smooth_nd(5, 2, 13);
  PairwiseGram kernel(KernelKind::Matern52, data.x);
  std::vector<double> grad;
  EXPECT_THROW(gp_neg_log_posterior(kernel, data.y, {0.0, 0.0, 0.0}, grad),
               std::invalid_argument);
  EXPECT_THROW(gp_neg_log_posterior(kernel, {1.0}, {0.0, 0.0, 0.0, 0.0}, grad),
               std::invalid_argument);
}

TEST(GpHyperopt, TensOfEvaluationsAtSessionScale) {
  // N = 100, d = 10, two restarts: the simplex search made ~353
  // evaluations here; the gradient search stays in the tens.
  const auto data = smooth_nd(100, 10, 14);
  GaussianProcess gp;
  tunekit::Rng rng(15);
  const std::size_t evals = gp.fit_with_hyperopt(data.x, data.y, rng, 2, 120);
  EXPECT_GT(evals, 2u);
  EXPECT_LE(evals, 120u);
  expect_usable(gp, data.x.row(0));
}

TEST(GpHyperopt, DuplicateRowsWithNearZeroNoise) {
  Data data = smooth_nd(12, 2, 16);
  for (std::size_t i = 6; i < 12; ++i) {  // every row twice
    for (std::size_t k = 0; k < 2; ++k) data.x(i, k) = data.x(i - 6, k);
    data.y[i] = data.y[i - 6];
  }
  GaussianProcess gp;
  gp.set_hyperparams(GpHyperparams::isotropic(2, 0.3, 1.0, 1e-8));
  tunekit::Rng rng(17);
  ASSERT_NO_THROW(gp.fit_with_hyperopt(data.x, data.y, rng, 2));
  expect_usable(gp, data.x.row(0));
}

TEST(GpHyperopt, ConstantTargets) {
  const auto data = smooth_nd(15, 3, 18);
  GaussianProcess gp;
  tunekit::Rng rng(19);
  ASSERT_NO_THROW(gp.fit_with_hyperopt(data.x, std::vector<double>(15, 3.0), rng, 2));
  expect_usable(gp, {0.5, 0.5, 0.5});
  EXPECT_NEAR(gp.predict({0.5, 0.5, 0.5}).mean, 3.0, 1e-6);
}

TEST(GpHyperopt, WarmStartAtAndBeyondTheBounds) {
  const auto data = smooth_nd(20, 3, 20);
  GpHyperparams at_bounds;
  at_bounds.signal_variance = 1e4;
  at_bounds.lengthscales = {1e-2, 1e2, 1e-2};
  at_bounds.noise_variance = 1.0;
  GpHyperparams beyond;
  beyond.signal_variance = 1e-9;
  beyond.lengthscales = {1e3, 1e-5, 0.5};
  beyond.noise_variance = 0.0;
  for (const auto& start : {at_bounds, beyond}) {
    GaussianProcess gp;
    gp.set_hyperparams(start);
    tunekit::Rng rng(21);
    ASSERT_NO_THROW(gp.fit_with_hyperopt(data.x, data.y, rng, 1));
    expect_usable(gp, data.x.row(3));
  }
}

TEST(GpHyperopt, ManyMorePointsThanDimensions) {
  const auto data = smooth_nd(200, 2, 22);
  GaussianProcess fixed;
  fixed.fit(data.x, data.y);
  GaussianProcess gp;
  tunekit::Rng rng(23);
  ASSERT_NO_THROW(gp.fit_with_hyperopt(data.x, data.y, rng, 2));
  expect_usable(gp, {0.3, 0.7});
  EXPECT_GT(gp.log_marginal_likelihood(), fixed.log_marginal_likelihood());
  // The data carry plenty of signal: the posterior mean tracks it.
  EXPECT_NEAR(gp.predict(data.x.row(5)).mean, data.y[5], 0.1);
}

TEST(GpHyperopt, SinglePoint) {
  linalg::Matrix x(1, 4, 0.25);
  GaussianProcess gp;
  tunekit::Rng rng(24);
  ASSERT_NO_THROW(gp.fit_with_hyperopt(x, {7.0}, rng, 2));
  expect_usable(gp, x.row(0));
  EXPECT_NEAR(gp.predict(x.row(0)).mean, 7.0, 1e-6);
}

TEST(GpHyperopt, ConsumesTheRestartStreamAsBefore) {
  // Restarts past the first draw 1 + d + 1 uniforms each from `rng`.
  const auto data = smooth_nd(10, 3, 25);
  GaussianProcess gp;
  tunekit::Rng rng(26);
  gp.fit_with_hyperopt(data.x, data.y, rng, 3);
  tunekit::Rng expected(26);
  for (int i = 0; i < 2 * 5; ++i) expected.uniform();
  EXPECT_EQ(rng.uniform(), expected.uniform());
}

}  // namespace
}  // namespace tunekit::bo
