#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

#include "common/log.hpp"

namespace tunekit::linalg {

namespace {

/// Columns solve_lower_batch updates per group.
constexpr std::size_t kColumnGroup = 32;

/// y[0, kColumnGroup) -= s * x[0, kColumnGroup): one column group of a
/// solve_lower_batch row update. The fixed trip count and restrict-qualified
/// rows (row k < i never overlaps row i) let the compiler emit it as vector
/// code at -O2 as well as -O3; the same loop written inline over the runtime
/// column count stayed scalar at -O2 and ran about half as fast at -O3.
void subtract_scaled_group(double* __restrict y, const double* __restrict x, double s) {
  for (std::size_t q = 0; q < kColumnGroup; ++q) y[q] -= s * x[q];
}

/// Attempt a plain Cholesky; returns false if a non-positive pivot appears.
bool try_cholesky(const Matrix& a, Matrix& l) {
  const std::size_t n = a.rows();
  l = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      const double* li = l.row_ptr(i);
      const double* lj = l.row_ptr(j);
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      l(i, j) = s / ljj;
    }
  }
  return true;
}

}  // namespace

Matrix cholesky(const Matrix& a, double initial_jitter, double max_jitter,
                double* jitter_used) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: matrix not square");
  Matrix l;
  if (try_cholesky(a, l)) {
    if (jitter_used) *jitter_used = 0.0;
    return l;
  }
  // Scale the jitter by the mean diagonal so it is meaningful for matrices
  // of any magnitude.
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) mean_diag += a(i, i);
  mean_diag = std::abs(mean_diag) / static_cast<double>(a.rows());
  if (mean_diag == 0.0) mean_diag = 1.0;

  for (double jitter = initial_jitter; jitter <= max_jitter; jitter *= 10.0) {
    Matrix aj = a;
    const double eps = jitter * mean_diag;
    for (std::size_t i = 0; i < aj.rows(); ++i) aj(i, i) += eps;
    if (try_cholesky(aj, l)) {
      if (jitter_used) *jitter_used = eps;
      log_debug("cholesky: succeeded with jitter ", eps);
      return l;
    }
  }
  throw std::runtime_error("cholesky: matrix not positive definite even with jitter");
}

std::vector<double> solve_lower(const Matrix& l, const std::vector<double>& b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("solve_lower: size mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* row = l.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) s -= row[k] * y[k];
    y[i] = s / row[i];
  }
  return y;
}

void solve_lower_batch(const Matrix& l, Matrix& b) {
  const std::size_t n = l.rows();
  if (b.rows() != n) throw std::invalid_argument("solve_lower_batch: size mismatch");
  const std::size_t m = b.cols();
  for (std::size_t i = 0; i < n; ++i) {
    double* yi = b.row_ptr(i);
    const double* row = l.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = row[k];
      const double* yk = b.row_ptr(k);
      std::size_t j = 0;
      for (; j + kColumnGroup <= m; j += kColumnGroup) subtract_scaled_group(yi + j, yk + j, lik);
      for (; j < m; ++j) yi[j] -= lik * yk[j];
    }
    for (std::size_t j = 0; j < m; ++j) yi[j] /= row[i];
  }
}

std::vector<double> solve_lower_transpose(const Matrix& l, const std::vector<double>& y) {
  const std::size_t n = l.rows();
  if (y.size() != n) throw std::invalid_argument("solve_lower_transpose: size mismatch");
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

std::vector<double> solve_with_cholesky(const Matrix& l, const std::vector<double>& b) {
  return solve_lower_transpose(l, solve_lower(l, b));
}

Matrix inverse_from_cholesky(const Matrix& l) {
  const std::size_t n = l.rows();
  // V = L^{-1}, row by row: V(i,:) = (e_i - sum_{k<i} L(i,k) V(k,:)) / L(i,i).
  // Row k of V is zero past column k, so four rows can be folded in per
  // pass over a common prefix, cutting the loads and stores of row i.
  Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* vi = v.row_ptr(i);
    const double* li = l.row_ptr(i);
    vi[i] = 1.0;
    std::size_t k = 0;
    for (; k + 4 <= i; k += 4) {
      const double* v0 = v.row_ptr(k);
      const double* v1 = v.row_ptr(k + 1);
      const double* v2 = v.row_ptr(k + 2);
      const double* v3 = v.row_ptr(k + 3);
      for (std::size_t j = 0; j <= k + 3; ++j) {
        vi[j] -= li[k] * v0[j] + li[k + 1] * v1[j] + li[k + 2] * v2[j] + li[k + 3] * v3[j];
      }
    }
    for (; k < i; ++k) {
      const double* vk = v.row_ptr(k);
      for (std::size_t j = 0; j <= k; ++j) vi[j] -= li[k] * vk[j];
    }
    const double inv = 1.0 / li[i];
    for (std::size_t j = 0; j <= i; ++j) vi[j] *= inv;
  }
  // A^{-1} = V^T V, accumulated into the lower triangle by rank-four
  // updates with rows of V (zero past their diagonal), then mirrored.
  Matrix out(n, n);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const double* v0 = v.row_ptr(k);
    const double* v1 = v.row_ptr(k + 1);
    const double* v2 = v.row_ptr(k + 2);
    const double* v3 = v.row_ptr(k + 3);
    for (std::size_t i = 0; i <= k + 3; ++i) {
      double* oi = out.row_ptr(i);
      for (std::size_t j = 0; j <= i; ++j) {
        oi[j] += v0[i] * v0[j] + v1[i] * v1[j] + v2[i] * v2[j] + v3[i] * v3[j];
      }
    }
  }
  for (; k < n; ++k) {
    const double* vk = v.row_ptr(k);
    for (std::size_t i = 0; i <= k; ++i) {
      double* oi = out.row_ptr(i);
      for (std::size_t j = 0; j <= i; ++j) oi[j] += vk[i] * vk[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) out(j, i) = out(i, j);
  }
  return out;
}

double log_det_from_cholesky(const Matrix& l) {
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

}  // namespace tunekit::linalg
