#include "stats/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace tunekit::stats {
namespace {

TEST(Pearson, PerfectLinear) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(Pearson, ShiftAndScaleInvariant) {
  const std::vector<double> x{1, 5, 2, 8, 3};
  const std::vector<double> y{0.2, 9, 1, 4, 7};
  const double r = pearson(x, y);
  std::vector<double> x2(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x2[i] = 3.0 * x[i] - 10.0;
  EXPECT_NEAR(pearson(x2, y), r, 1e-12);
}

TEST(Pearson, ConstantSeriesGivesZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(Pearson, IndependentRoughlyZero) {
  Rng rng(9);
  std::vector<double> x(3000), y(3000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.06);
}

TEST(Pearson, BadInputThrows) {
  EXPECT_THROW(pearson({1}, {1}), std::invalid_argument);
  EXPECT_THROW(pearson({1, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(PearsonMatrix, DiagonalOnesSymmetric) {
  linalg::Matrix samples(4, 3);
  Rng rng(2);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) samples(r, c) = rng.uniform();
  }
  const auto corr = pearson_matrix(samples);
  EXPECT_EQ(corr.rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(corr(i, i), 1.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(corr(i, j), corr(j, i));
      EXPECT_LE(std::abs(corr(i, j)), 1.0 + 1e-12);
    }
  }
}

TEST(CorrelatedPairs, FindsInjectedCorrelation) {
  Rng rng(5);
  linalg::Matrix samples(200, 3);
  for (std::size_t r = 0; r < 200; ++r) {
    const double a = rng.uniform();
    samples(r, 0) = a;
    samples(r, 1) = a + 0.01 * rng.uniform();  // strongly correlated with 0
    samples(r, 2) = rng.uniform();             // independent
  }
  const auto pairs = correlated_pairs(samples, 0.5);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].i, 0u);
  EXPECT_EQ(pairs[0].j, 1u);
  EXPECT_GT(pairs[0].r, 0.9);
}

TEST(CorrelatedPairs, SortedByStrength) {
  Rng rng(6);
  linalg::Matrix samples(300, 4);
  for (std::size_t r = 0; r < 300; ++r) {
    const double a = rng.uniform();
    samples(r, 0) = a;
    samples(r, 1) = a + 0.02 * rng.normal();   // very strong
    samples(r, 2) = a + 0.4 * rng.normal();    // moderate
    samples(r, 3) = rng.uniform();
  }
  const auto pairs = correlated_pairs(samples, 0.3);
  ASSERT_GE(pairs.size(), 2u);
  EXPECT_GE(std::abs(pairs[0].r), std::abs(pairs[1].r));
}

}  // namespace
}  // namespace tunekit::stats
