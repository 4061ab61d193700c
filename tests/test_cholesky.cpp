#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "linalg/vecops.hpp"

namespace tunekit::linalg {
namespace {

/// Random SPD matrix A = B B^T + n I.
Matrix random_spd(std::size_t n, Rng& rng, double diag_boost = 0.0) {
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix a = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n) * 0.1 + diag_boost;
  return a;
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix a = random_spd(8, rng);
    const Matrix l = cholesky(a);
    const Matrix rebuilt = l * l.transposed();
    EXPECT_LT(rebuilt.max_abs_diff(a), 1e-9);
  }
}

TEST(Cholesky, FactorIsLowerTriangular) {
  Rng rng(2);
  const Matrix a = random_spd(6, rng);
  const Matrix l = cholesky(a);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(Cholesky, KnownSmallCase) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]]
  const Matrix a{{4, 2}, {2, 3}};
  const Matrix l = cholesky(a);
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, IndefiniteMatrixThrowsEvenWithJitter) {
  // Strongly indefinite: jitter up to max cannot fix it.
  Matrix a{{1, 0}, {0, -100}};
  EXPECT_THROW(cholesky(a, 1e-10, 1e-4), std::runtime_error);
}

TEST(Cholesky, JitterRescuesNearSingular) {
  // Rank-deficient PSD matrix: plain Cholesky fails, jitter succeeds.
  Matrix a{{1, 1}, {1, 1}};
  double jitter = -1.0;
  const Matrix l = cholesky(a, 1e-10, 1e-2, &jitter);
  EXPECT_GT(jitter, 0.0);
  EXPECT_GT(l(0, 0), 0.0);
}

TEST(Cholesky, NoJitterForWellConditioned) {
  Rng rng(3);
  const Matrix a = random_spd(5, rng, 1.0);
  double jitter = -1.0;
  cholesky(a, 1e-10, 1e-2, &jitter);
  EXPECT_DOUBLE_EQ(jitter, 0.0);
}

TEST(CholeskySolve, SolvesLinearSystem) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 7;
    const Matrix a = random_spd(n, rng);
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
    const std::vector<double> b = a.mul(x_true);
    const Matrix l = cholesky(a);
    const std::vector<double> x = solve_with_cholesky(l, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(CholeskySolve, TriangularSolvesInverse) {
  Rng rng(5);
  const std::size_t n = 6;
  const Matrix a = random_spd(n, rng);
  const Matrix l = cholesky(a);
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  // L (L^-1 b) == b
  const auto y = solve_lower(l, b);
  const auto b2 = l.mul(y);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b2[i], b[i], 1e-10);
  // L^T (L^-T y) == y
  const auto x = solve_lower_transpose(l, y);
  const auto y2 = l.transposed().mul(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(y2[i], y[i], 1e-10);
}

TEST(Cholesky, SolveLowerBatchMatchesSolveLowerPerColumn) {
  Rng rng(11);
  for (std::size_t n : {1u, 17u, 110u}) {
    const Matrix l = cholesky(random_spd(n, rng));
    for (std::size_t m : {1u, 3u, 32u, 33u, 65u}) {
      Matrix b(n, m);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
      }
      Matrix y = b;
      solve_lower_batch(l, y);
      for (std::size_t j = 0; j < m; ++j) {
        const std::vector<double> expected = solve_lower(l, b.col(j));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(y(i, j)),
                    std::bit_cast<std::uint64_t>(expected[i]))
              << "n=" << n << " m=" << m << " row " << i << " column " << j;
        }
      }
    }
  }
  Matrix wrong(2, 4);
  EXPECT_THROW(solve_lower_batch(cholesky(Matrix::identity(3)), wrong), std::invalid_argument);
}

TEST(CholeskySolve, SizeMismatchThrows) {
  const Matrix l = cholesky(Matrix{{4, 0}, {0, 4}});
  EXPECT_THROW(solve_lower(l, {1.0}), std::invalid_argument);
  EXPECT_THROW(solve_lower_transpose(l, {1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(CholeskyLogDet, MatchesKnownDeterminant) {
  // det([[4,2],[2,3]]) = 8 -> log 8
  const Matrix l = cholesky(Matrix{{4, 2}, {2, 3}});
  EXPECT_NEAR(log_det_from_cholesky(l), std::log(8.0), 1e-12);
}

TEST(Cholesky, InverseFromFactor) {
  Rng rng(10);
  for (std::size_t n : {1u, 3u, 4u, 6u, 9u, 30u}) {
    const Matrix a = random_spd(n, rng);
    const Matrix inv = inverse_from_cholesky(cholesky(a));
    EXPECT_LT((a * inv).max_abs_diff(Matrix::identity(n)), 1e-10) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(inv(i, j), inv(j, i));
    }
    // Its diagonal is what the column solves gave.
    std::vector<double> e(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      e[i] = 1.0;
      EXPECT_NEAR(inv(i, i), solve_with_cholesky(cholesky(a), e)[i], 1e-12);
      e[i] = 0.0;
    }
  }
}

TEST(CholeskyLogDet, IdentityIsZero) {
  const Matrix l = cholesky(Matrix::identity(5));
  EXPECT_NEAR(log_det_from_cholesky(l), 0.0, 1e-12);
}

TEST(VecOps, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  EXPECT_THROW(dot({1}, {1, 2}), std::invalid_argument);
}

TEST(VecOps, Distances) {
  EXPECT_DOUBLE_EQ(squared_distance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(scaled_squared_distance({0, 0}, {2, 2}, {2, 1}), 1.0 + 4.0);
  EXPECT_THROW(scaled_squared_distance({0}, {1}, {1, 2}), std::invalid_argument);
}

TEST(VecOps, AddSubScaleClamp) {
  EXPECT_EQ(add({1, 2}, {3, 4}), (std::vector<double>{4, 6}));
  EXPECT_EQ(sub({3, 4}, {1, 2}), (std::vector<double>{2, 2}));
  EXPECT_EQ(scale({1, -2}, 3.0), (std::vector<double>{3, -6}));
  std::vector<double> v{-1.0, 0.5, 2.0};
  clamp_inplace(v, 0.0, 1.0);
  EXPECT_EQ(v, (std::vector<double>{0.0, 0.5, 1.0}));
}

}  // namespace
}  // namespace tunekit::linalg
