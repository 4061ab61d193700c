#include "bo/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"

namespace tunekit::bo {
namespace {

class KernelKinds : public ::testing::TestWithParam<KernelKind> {};

TEST_P(KernelKinds, SelfCovarianceIsSignalVariance) {
  const auto hp = GpHyperparams::isotropic(3, 0.5, 2.0, 1e-6);
  const std::vector<double> x{0.1, 0.2, 0.3};
  EXPECT_NEAR(kernel_value(GetParam(), x, x, hp), 2.0, 1e-12);
}

TEST_P(KernelKinds, Symmetric) {
  const auto hp = GpHyperparams::isotropic(2, 0.4);
  const std::vector<double> a{0.1, 0.9};
  const std::vector<double> b{0.7, 0.3};
  EXPECT_DOUBLE_EQ(kernel_value(GetParam(), a, b, hp),
                   kernel_value(GetParam(), b, a, hp));
}

TEST_P(KernelKinds, DecaysWithDistance) {
  const auto hp = GpHyperparams::isotropic(1, 0.3);
  const std::vector<double> origin{0.0};
  double prev = kernel_value(GetParam(), origin, {0.0}, hp);
  for (double d : {0.1, 0.2, 0.4, 0.8}) {
    const double k = kernel_value(GetParam(), origin, {d}, hp);
    EXPECT_LT(k, prev);
    EXPECT_GT(k, 0.0);
    prev = k;
  }
}

TEST_P(KernelKinds, GramMatrixIsPsd) {
  // A PSD Gram matrix must Cholesky-factor (with tiny jitter allowance).
  tunekit::Rng rng(3);
  linalg::Matrix x(12, 2);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
  }
  const auto hp = GpHyperparams::isotropic(2, 0.3, 1.0, 1e-6);
  const auto gram = kernel_gram(GetParam(), x, hp);
  EXPECT_NO_THROW(linalg::cholesky(gram));
  // Symmetry and diagonal structure.
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(gram(i, i), 1.0 + 1e-6, 1e-12);
    for (std::size_t j = 0; j < 12; ++j) EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
  }
}

TEST_P(KernelKinds, PairwiseGramMatchesKernelGram) {
  tunekit::Rng rng(4);
  linalg::Matrix x(9, 3);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t k = 0; k < 3; ++k) x(i, k) = rng.uniform();
  }
  GpHyperparams hp;
  hp.signal_variance = 1.7;
  hp.lengthscales = {0.2, 0.9, 3.0};
  hp.noise_variance = 1e-3;
  PairwiseGram pairs(GetParam(), x);
  EXPECT_THROW(pairs.gradient(linalg::Matrix(9, 9)), std::logic_error);
  const auto cached = pairs.gram(hp);
  EXPECT_LT(cached.max_abs_diff(kernel_gram(GetParam(), x, hp)), 1e-14);
}

TEST_P(KernelKinds, CrossBatchMatchesPointwise) {
  tunekit::Rng rng(5);
  linalg::Matrix x(13, 4);
  linalg::Matrix points(37, 4);
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t i = 0; i < x.rows(); ++i) x(i, k) = rng.uniform();
    for (std::size_t c = 0; c < points.rows(); ++c) points(c, k) = rng.uniform();
  }
  for (std::size_t k = 0; k < 4; ++k) points(5, k) = x(2, k);  // r2 = 0
  GpHyperparams hp;
  hp.signal_variance = 1.3;
  hp.lengthscales = {0.15, 0.6, 2.0, 0.4};
  hp.noise_variance = 1e-4;
  const linalg::Matrix cross = kernel_cross_batch(GetParam(), x, points, hp);
  ASSERT_EQ(cross.rows(), x.rows());
  ASSERT_EQ(cross.cols(), points.rows());
  for (std::size_t c = 0; c < points.rows(); ++c) {
    const std::vector<double> k = kernel_cross(GetParam(), x, points.row(c), hp);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cross(i, c)), std::bit_cast<std::uint64_t>(k[i]))
          << "row " << i << " point " << c;
    }
  }
  EXPECT_EQ(kernel_cross_batch(GetParam(), x, linalg::Matrix(0, 4), hp).cols(), 0u);
  EXPECT_THROW(kernel_cross_batch(GetParam(), x, linalg::Matrix(2, 3), hp),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelKinds,
                         ::testing::Values(KernelKind::RBF, KernelKind::Matern32,
                                           KernelKind::Matern52),
                         [](const auto& info) { return to_string(info.param); });

TEST(Kernels, RbfMatchesClosedForm) {
  const auto hp = GpHyperparams::isotropic(1, 0.5, 1.0);
  const double k = kernel_value(KernelKind::RBF, {0.0}, {0.5}, hp);
  EXPECT_NEAR(k, std::exp(-0.5), 1e-12);
}

TEST(Kernels, ArdLengthscalesWeightDimensions) {
  GpHyperparams hp;
  hp.signal_variance = 1.0;
  hp.lengthscales = {0.1, 10.0};
  hp.noise_variance = 0.0;
  // Moving along the short-lengthscale axis decays far faster.
  const double k_fast = kernel_value(KernelKind::RBF, {0.0, 0.0}, {0.5, 0.0}, hp);
  const double k_slow = kernel_value(KernelKind::RBF, {0.0, 0.0}, {0.0, 0.5}, hp);
  EXPECT_LT(k_fast, 0.01);
  EXPECT_GT(k_slow, 0.99);
}

TEST(Kernels, LengthscaleArityChecked) {
  const auto hp = GpHyperparams::isotropic(2);
  EXPECT_THROW(kernel_value(KernelKind::RBF, {0.0}, {1.0}, hp), std::invalid_argument);
}

TEST(Kernels, CrossVectorShape) {
  linalg::Matrix x(5, 1);
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = 0.2 * static_cast<double>(i);
  const auto hp = GpHyperparams::isotropic(1, 0.3);
  const auto k = kernel_cross(KernelKind::Matern52, x, {0.4}, hp);
  ASSERT_EQ(k.size(), 5u);
  // Maximum at the matching training point.
  EXPECT_NEAR(k[2], 1.0, 1e-9);
  EXPECT_GT(k[2], k[0]);
  EXPECT_GT(k[2], k[4]);
}

TEST(Kernels, Matern52SmootherThanMatern32Nearby) {
  const auto hp = GpHyperparams::isotropic(1, 0.5);
  // At small distances Matern52 stays higher (smoother decay start).
  const double k52 = kernel_value(KernelKind::Matern52, {0.0}, {0.1}, hp);
  const double k32 = kernel_value(KernelKind::Matern32, {0.0}, {0.1}, hp);
  EXPECT_GT(k52, k32);
}

TEST(Kernels, Names) {
  EXPECT_STREQ(to_string(KernelKind::RBF), "rbf");
  EXPECT_STREQ(to_string(KernelKind::Matern32), "matern32");
  EXPECT_STREQ(to_string(KernelKind::Matern52), "matern52");
}

}  // namespace
}  // namespace tunekit::bo
