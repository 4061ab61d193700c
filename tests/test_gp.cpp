#include "bo/gp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"

namespace tunekit::bo {
namespace {

linalg::Matrix grid_1d(std::size_t n) {
  linalg::Matrix x(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return x;
}

TEST(GaussianProcess, InterpolatesTrainingDataWithLowNoise) {
  const auto x = grid_1d(8);
  std::vector<double> y(8);
  for (std::size_t i = 0; i < 8; ++i) y[i] = std::sin(6.0 * x(i, 0));

  GaussianProcess gp(KernelKind::Matern52);
  gp.set_hyperparams(GpHyperparams::isotropic(1, 0.2, 1.0, 1e-8));
  gp.fit(x, y);

  for (std::size_t i = 0; i < 8; ++i) {
    const auto p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 1e-3);
    EXPECT_LT(p.stddev(), 0.05);
  }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData) {
  const auto x = grid_1d(5);
  std::vector<double> y{0.0, 0.5, 1.0, 0.5, 0.0};
  GaussianProcess gp;
  gp.set_hyperparams(GpHyperparams::isotropic(1, 0.1, 1.0, 1e-6));
  gp.fit(x, y);

  const auto at_data = gp.predict({0.5});
  const auto off_data = gp.predict({0.625});
  EXPECT_GT(off_data.variance, at_data.variance);
}

TEST(GaussianProcess, PredictionInterpolatesSmoothly) {
  // Between two equal training values, the mean stays near that value.
  linalg::Matrix x(2, 1);
  x(0, 0) = 0.3;
  x(1, 0) = 0.7;
  GaussianProcess gp;
  gp.set_hyperparams(GpHyperparams::isotropic(1, 0.5, 1.0, 1e-8));
  gp.fit(x, {2.0, 2.0});
  EXPECT_NEAR(gp.predict({0.5}).mean, 2.0, 0.05);
}

TEST(GaussianProcess, HandlesConstantTargets) {
  const auto x = grid_1d(5);
  GaussianProcess gp;
  EXPECT_NO_THROW(gp.fit(x, std::vector<double>(5, 3.0)));
  EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 1e-6);
}

TEST(GaussianProcess, HyperoptImprovesLikelihood) {
  tunekit::Rng rng(4);
  const std::size_t n = 25;
  linalg::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::sin(8.0 * x(i, 0)) + 0.05 * rng.normal();
  }

  GaussianProcess fixed;
  fixed.set_hyperparams(GpHyperparams::isotropic(1, 1e2, 1.0, 0.5));  // bad guess
  fixed.fit(x, y);
  const double lml_fixed = fixed.log_marginal_likelihood();

  GaussianProcess tuned;
  tuned.set_hyperparams(GpHyperparams::isotropic(1, 1e2, 1.0, 0.5));
  tunekit::Rng hrng(5);
  tuned.fit_with_hyperopt(x, y, hrng, 3);
  EXPECT_GT(tuned.log_marginal_likelihood(), lml_fixed);
}

TEST(GaussianProcess, HyperoptKeepsLengthscalesInBounds) {
  tunekit::Rng rng(6);
  linalg::Matrix x(10, 2);
  std::vector<double> y(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = x(i, 0);
  }
  GaussianProcess gp;
  tunekit::Rng hrng(7);
  gp.fit_with_hyperopt(x, y, hrng, 2);
  for (double ls : gp.hyperparams().lengthscales) {
    EXPECT_GE(ls, 1e-2 * 0.99);
    EXPECT_LE(ls, 1e2 * 1.01);
  }
  EXPECT_GT(gp.hyperparams().noise_variance, 0.0);
}

TEST(GaussianProcess, PriorMeanShiftsPrediction) {
  // Far from data, prediction reverts to the prior mean, not zero.
  linalg::Matrix x(2, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 0.05;
  GaussianProcess gp;
  gp.set_prior_mean([](const std::vector<double>& u) { return 10.0 + u[0]; });
  gp.set_hyperparams(GpHyperparams::isotropic(1, 0.05, 1.0, 1e-6));
  gp.fit(x, {10.0, 10.05});  // data agrees with the prior
  const auto far = gp.predict({1.0});
  EXPECT_NEAR(far.mean, 11.0, 0.2);
}

TEST(GaussianProcess, PredictBeforeFitThrows) {
  GaussianProcess gp;
  EXPECT_THROW(gp.predict({0.5}), std::runtime_error);
}

TEST(GaussianProcess, InputValidation) {
  GaussianProcess gp;
  EXPECT_THROW(gp.fit(linalg::Matrix(0, 1), {}), std::invalid_argument);
  EXPECT_THROW(gp.fit(grid_1d(3), {1.0, 2.0}), std::invalid_argument);
  gp.fit(grid_1d(3), {1.0, 2.0, 3.0});
  EXPECT_THROW(gp.predict({0.1, 0.2}), std::invalid_argument);
}

TEST(GaussianProcess, AccessorsReportState) {
  GaussianProcess gp(KernelKind::RBF);
  EXPECT_EQ(gp.kernel_kind(), KernelKind::RBF);
  EXPECT_FALSE(gp.fitted());
  gp.fit(grid_1d(4), {1, 2, 3, 4});
  EXPECT_TRUE(gp.fitted());
  EXPECT_EQ(gp.n_points(), 4u);
  EXPECT_EQ(gp.dim(), 1u);
}

TEST(GaussianProcess, VarianceNeverNegative) {
  const auto x = grid_1d(6);
  GaussianProcess gp;
  gp.set_hyperparams(GpHyperparams::isotropic(1, 0.15, 1.0, 1e-9));
  gp.fit(x, {0, 1, 0, 1, 0, 1});
  for (double t = 0.0; t <= 1.0; t += 0.05) {
    EXPECT_GE(gp.predict({t}).variance, 0.0);
  }
}

TEST(GaussianProcess, RankDeficientGramFitsViaJitterEscalation) {
  // Duplicate training rows with (numerically) zero noise make the Gram
  // matrix exactly singular — the degenerate case a tuning session produces
  // when a retried configuration is recorded more than once. The fit must
  // survive via the jitter ladder instead of throwing, report the jitter it
  // needed, and still predict finite values.
  linalg::Matrix x(6, 1);
  x(0, 0) = 0.1; x(1, 0) = 0.1; x(2, 0) = 0.1;  // triple duplicate
  x(3, 0) = 0.5; x(4, 0) = 0.5;                 // double duplicate
  x(5, 0) = 0.9;
  const std::vector<double> y{1.0, 1.0, 1.0, 2.0, 2.0, 3.0};

  GaussianProcess gp;
  gp.set_hyperparams(GpHyperparams::isotropic(1, 0.3, 1.0, 0.0));
  ASSERT_NO_THROW(gp.fit(x, y));
  EXPECT_GT(gp.last_jitter(), 0.0) << "singular Gram factored without jitter?";
  EXPECT_TRUE(std::isfinite(gp.log_marginal_likelihood()));
  for (double q : {0.1, 0.5, 0.9, 0.3}) {
    const auto p = gp.predict({q});
    EXPECT_TRUE(std::isfinite(p.mean));
    EXPECT_TRUE(std::isfinite(p.variance));
    EXPECT_GE(p.variance, 0.0);
  }
  // A clean, well-separated fit needs no jitter and says so.
  GaussianProcess clean;
  clean.set_hyperparams(GpHyperparams::isotropic(1, 0.3, 1.0, 1e-4));
  clean.fit(grid_1d(6), std::vector<double>{0., 1., 2., 3., 4., 5.});
  EXPECT_EQ(clean.last_jitter(), 0.0);
}

class GpPredictBatch : public ::testing::TestWithParam<KernelKind> {};

// predict_batch must reproduce predict() bit for bit, in every block shape
// (m below, at and above the 32-point block) and with or without a prior
// mean; some query rows are training rows, where the variance is smallest.
TEST_P(GpPredictBatch, MatchesPredictPerRow) {
  constexpr std::size_t d = 6;
  tunekit::Rng rng(21);
  for (std::size_t n : {1u, 7u, 110u}) {
    linalg::Matrix x(n, d);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < d; ++k) x(i, k) = rng.uniform();
      y[i] = std::sin(4.0 * x(i, 0)) + x(i, 1) * x(i, 2) + 0.01 * rng.normal();
    }
    for (bool prior : {false, true}) {
      GaussianProcess gp(GetParam());
      if (prior) {
        gp.set_prior_mean([](const std::vector<double>& u) { return 2.0 * u[0] - u[1] * u[3]; });
      }
      GpHyperparams hp;
      hp.signal_variance = 1.4;
      hp.lengthscales = {0.2, 0.35, 0.5, 0.8, 1.5, 3.0};
      hp.noise_variance = 1e-5;
      gp.set_hyperparams(hp);
      gp.fit(x, y);
      for (std::size_t m : {0u, 1u, 31u, 32u, 33u, 512u}) {
        linalg::Matrix points(m, d);
        for (std::size_t c = 0; c < m; ++c) {
          for (std::size_t k = 0; k < d; ++k) {
            points(c, k) = c % 5 == 0 ? x(c % n, k) : rng.uniform();
          }
        }
        const auto batch = gp.predict_batch(points);
        ASSERT_EQ(batch.size(), m);
        for (std::size_t c = 0; c < m; ++c) {
          const auto single = gp.predict(points.row(c));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[c].mean),
                    std::bit_cast<std::uint64_t>(single.mean))
              << "n=" << n << " prior=" << prior << " m=" << m << " point " << c;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batch[c].variance),
                    std::bit_cast<std::uint64_t>(single.variance))
              << "n=" << n << " prior=" << prior << " m=" << m << " point " << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, GpPredictBatch,
                         ::testing::Values(KernelKind::RBF, KernelKind::Matern32,
                                           KernelKind::Matern52),
                         [](const auto& info) { return to_string(info.param); });

TEST(GaussianProcess, PredictBatchThrowsLikePredict) {
  GaussianProcess gp;
  EXPECT_THROW(gp.predict_batch(linalg::Matrix(2, 1)), std::runtime_error);
  gp.fit(grid_1d(3), {1.0, 2.0, 3.0});
  EXPECT_THROW(gp.predict_batch(linalg::Matrix(2, 2)), std::invalid_argument);
  EXPECT_TRUE(gp.predict_batch(linalg::Matrix(0, 1)).empty());
}

}  // namespace
}  // namespace tunekit::bo
