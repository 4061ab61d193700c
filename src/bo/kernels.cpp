#include "bo/kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "linalg/vecops.hpp"

namespace tunekit::bo {

const char* to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::RBF: return "rbf";
    case KernelKind::Matern32: return "matern32";
    case KernelKind::Matern52: return "matern52";
  }
  return "?";
}

GpHyperparams GpHyperparams::isotropic(std::size_t dim, double lengthscale,
                                       double signal_variance, double noise_variance) {
  GpHyperparams hp;
  hp.signal_variance = signal_variance;
  hp.lengthscales.assign(dim, lengthscale);
  hp.noise_variance = noise_variance;
  return hp;
}

namespace {

/// k at scaled squared distance r2 and its slope dk/d(r2): the one place
/// each kernel's formula lives. The slope feeds the likelihood gradient.
struct KernelAt {
  double value;
  double slope;
};

KernelAt kernel_of_r2(KernelKind kind, double r2, double signal_variance) {
  switch (kind) {
    case KernelKind::RBF: {
      const double k = signal_variance * std::exp(-0.5 * r2);
      return {k, -0.5 * k};
    }
    case KernelKind::Matern32: {
      const double r = std::sqrt(3.0 * r2);
      const double e = std::exp(-r);
      return {signal_variance * (1.0 + r) * e, -1.5 * signal_variance * e};
    }
    case KernelKind::Matern52: {
      const double r = std::sqrt(5.0 * r2);
      const double e = std::exp(-r);
      return {signal_variance * (1.0 + r + r * r / 3.0) * e,
              -(5.0 / 6.0) * signal_variance * (1.0 + r) * e};
    }
  }
  return {0.0, 0.0};
}

/// Points per lane group of kernel_cross_batch's distance loop.
constexpr std::size_t kLaneGroup = 32;

/// r2[q] += ((a - p[q]) / scale)^2 for one lane group: one coordinate of
/// linalg::scaled_squared_distance for kLaneGroup points at once, each lane
/// with that function's operations in its order. The fixed trip count and
/// restrict-qualified pointers let the compiler emit it as vector code at
/// -O2 as well as -O3 (as linalg::solve_lower_batch's group helper does).
void add_scaled_squares(double* __restrict r2, const double* __restrict p, double a,
                        double scale) {
  for (std::size_t q = 0; q < kLaneGroup; ++q) {
    const double t = (a - p[q]) / scale;
    r2[q] += t * t;
  }
}

/// k between two raw rows of hp.lengthscales.size() coordinates, read in
/// place; the caller has checked the arity.
double kernel_of_rows(KernelKind kind, const double* a, const double* b,
                      const GpHyperparams& hp) {
  const double r2 = linalg::scaled_squared_distance(a, b, hp.lengthscales.data(),
                                                    hp.lengthscales.size());
  return kernel_of_r2(kind, r2, hp.signal_variance).value;
}

}  // namespace

double kernel_value(KernelKind kind, const std::vector<double>& a,
                    const std::vector<double>& b, const GpHyperparams& hp) {
  if (hp.lengthscales.size() != a.size()) {
    throw std::invalid_argument("kernel_value: lengthscale arity mismatch");
  }
  return kernel_of_r2(kind, linalg::scaled_squared_distance(a, b, hp.lengthscales),
                      hp.signal_variance)
      .value;
}

linalg::Matrix kernel_gram(KernelKind kind, const linalg::Matrix& x,
                           const GpHyperparams& hp) {
  if (hp.lengthscales.size() != x.cols()) {
    throw std::invalid_argument("kernel_gram: lengthscale arity mismatch");
  }
  const std::size_t n = x.rows();
  linalg::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x.row_ptr(i);
    k(i, i) = hp.signal_variance + hp.noise_variance;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = kernel_of_rows(kind, xi, x.row_ptr(j), hp);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

PairwiseGram::PairwiseGram(KernelKind kind, const linalg::Matrix& x)
    : kind_(kind), n_(x.rows()), d_(x.cols()) {
  sq_.reserve(n_ * (n_ - 1) / 2 * d_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* xi = x.row_ptr(i);
    for (std::size_t j = i + 1; j < n_; ++j) {
      const double* xj = x.row_ptr(j);
      for (std::size_t k = 0; k < d_; ++k) sq_.push_back((xi[k] - xj[k]) * (xi[k] - xj[k]));
    }
  }
}

linalg::Matrix PairwiseGram::gram(const GpHyperparams& hp) {
  if (hp.lengthscales.size() != d_) {
    throw std::invalid_argument("PairwiseGram::gram: lengthscale arity mismatch");
  }
  hp_ = hp;
  std::vector<double> inv_ls2(d_);
  for (std::size_t k = 0; k < d_; ++k) {
    inv_ls2[k] = 1.0 / (hp.lengthscales[k] * hp.lengthscales[k]);
  }
  const std::size_t pairs = n_ * (n_ - 1) / 2;
  value_.resize(pairs);
  slope_.resize(pairs);
  linalg::Matrix k(n_, n_);
  const double* sq = sq_.data();
  std::size_t p = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    k(i, i) = hp.signal_variance + hp.noise_variance;
    for (std::size_t j = i + 1; j < n_; ++j, ++p, sq += d_) {
      double r2 = 0.0;
      for (std::size_t c = 0; c < d_; ++c) r2 += sq[c] * inv_ls2[c];
      const KernelAt at = kernel_of_r2(kind_, r2, hp.signal_variance);
      value_[p] = at.value;
      slope_[p] = at.slope;
      k(i, j) = at.value;
      k(j, i) = at.value;
    }
  }
  has_gram_ = true;
  return k;
}

std::vector<double> PairwiseGram::gradient(const linalg::Matrix& weights) const {
  if (!has_gram_) throw std::logic_error("PairwiseGram::gradient before gram");
  if (weights.rows() != n_ || weights.cols() != n_) {
    throw std::invalid_argument("PairwiseGram::gradient: weights shape mismatch");
  }
  // Each off-diagonal pair is visited once and counted twice. With
  // r2 = sum_k sq_k / l_k^2:  dK_ab/dlog sv = K_ab and
  // dK_ab/dlog l_k = k'(r2) * dr2/dlog l_k = -2 k'(r2) sq_k / l_k^2.
  double signal = 0.0;
  std::vector<double> ls(d_, 0.0);
  const double* sq = sq_.data();
  std::size_t p = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double* wi = weights.row_ptr(i);
    for (std::size_t j = i + 1; j < n_; ++j, ++p, sq += d_) {
      signal += wi[j] * value_[p];
      const double c = wi[j] * slope_[p];
      for (std::size_t k = 0; k < d_; ++k) ls[k] += c * sq[k];
    }
  }
  // The diagonal is sv + nv: dK_aa/dlog sv = sv, dK_aa/dlog nv = nv.
  double trace = 0.0;
  for (std::size_t i = 0; i < n_; ++i) trace += weights(i, i);

  std::vector<double> grad(d_ + 2);
  grad[0] = 2.0 * signal + hp_.signal_variance * trace;
  for (std::size_t k = 0; k < d_; ++k) {
    const double l = hp_.lengthscales[k];
    grad[1 + k] = -4.0 * ls[k] / (l * l);
  }
  grad[1 + d_] = hp_.noise_variance * trace;
  return grad;
}

std::vector<double> kernel_cross(KernelKind kind, const linalg::Matrix& x,
                                 const std::vector<double>& point,
                                 const GpHyperparams& hp) {
  if (hp.lengthscales.size() != x.cols() || point.size() != x.cols()) {
    throw std::invalid_argument("kernel_cross: arity mismatch");
  }
  std::vector<double> out(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    out[i] = kernel_of_rows(kind, x.row_ptr(i), point.data(), hp);
  }
  return out;
}

linalg::Matrix kernel_cross_batch(KernelKind kind, const linalg::Matrix& x,
                                  const linalg::Matrix& points, const GpHyperparams& hp) {
  if (hp.lengthscales.size() != x.cols() || points.cols() != x.cols()) {
    throw std::invalid_argument("kernel_cross_batch: arity mismatch");
  }
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const std::size_t m = points.rows();
  // The points coordinate-major, padded with zero lanes to whole groups:
  // coordinate k of point c sits at lanes[k * width + c].
  const std::size_t width = (m + kLaneGroup - 1) / kLaneGroup * kLaneGroup;
  std::vector<double> lanes(d * width, 0.0);
  for (std::size_t c = 0; c < m; ++c) {
    const double* pc = points.row_ptr(c);
    for (std::size_t k = 0; k < d; ++k) lanes[k * width + c] = pc[k];
  }
  const double* ls = hp.lengthscales.data();
  linalg::Matrix out(n, m);
  std::array<double, kLaneGroup> r2{};
  for (std::size_t first = 0; first < m; first += kLaneGroup) {
    const std::size_t used = std::min(kLaneGroup, m - first);
    for (std::size_t i = 0; i < n; ++i) {
      const double* xi = x.row_ptr(i);
      r2.fill(0.0);
      for (std::size_t k = 0; k < d; ++k) {
        add_scaled_squares(r2.data(), lanes.data() + k * width + first, xi[k], ls[k]);
      }
      double* oi = out.row_ptr(i) + first;
      for (std::size_t q = 0; q < used; ++q) {
        oi[q] = kernel_of_r2(kind, r2[q], hp.signal_variance).value;
      }
    }
  }
  return out;
}

}  // namespace tunekit::bo
