#include "bo/kernels.hpp"

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

/// k at scaled squared distance r2: the one place each kernel's formula lives.
double kernel_of_r2(KernelKind kind, double r2, double signal_variance) {
  switch (kind) {
    case KernelKind::RBF:
      return signal_variance * std::exp(-0.5 * r2);
    case KernelKind::Matern32: {
      const double r = std::sqrt(3.0 * r2);
      return signal_variance * (1.0 + r) * std::exp(-r);
    }
    case KernelKind::Matern52: {
      const double r = std::sqrt(5.0 * r2);
      return signal_variance * (1.0 + r + r * r / 3.0) * std::exp(-r);
    }
  }
  return 0.0;
}

/// k between two raw rows of hp.lengthscales.size() coordinates, read in
/// place; the caller has checked the arity.
double kernel_of_rows(KernelKind kind, const double* a, const double* b,
                      const GpHyperparams& hp) {
  const double r2 = linalg::scaled_squared_distance(a, b, hp.lengthscales.data(),
                                                    hp.lengthscales.size());
  return kernel_of_r2(kind, r2, hp.signal_variance);
}

}  // namespace

double kernel_value(KernelKind kind, const std::vector<double>& a,
                    const std::vector<double>& b, const GpHyperparams& hp) {
  if (hp.lengthscales.size() != a.size()) {
    throw std::invalid_argument("kernel_value: lengthscale arity mismatch");
  }
  return kernel_of_r2(kind, linalg::scaled_squared_distance(a, b, hp.lengthscales),
                      hp.signal_variance);
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

}  // namespace tunekit::bo
