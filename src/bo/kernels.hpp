#pragma once
// Covariance kernels with ARD (per-dimension) lengthscales. All kernels
// operate on unit-cube coordinates produced by SearchSpace::encode_unit.

#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace tunekit::bo {

enum class KernelKind { RBF, Matern32, Matern52 };

const char* to_string(KernelKind kind);

struct GpHyperparams {
  double signal_variance = 1.0;
  /// One lengthscale per input dimension (ARD).
  std::vector<double> lengthscales;
  double noise_variance = 1e-6;

  static GpHyperparams isotropic(std::size_t dim, double lengthscale = 0.3,
                                 double signal_variance = 1.0,
                                 double noise_variance = 1e-6);
};

/// k(a, b) for the given kind and hyperparameters.
double kernel_value(KernelKind kind, const std::vector<double>& a,
                    const std::vector<double>& b, const GpHyperparams& hp);

/// Gram matrix K(X, X) + noise_variance * I, X given row-per-point.
linalg::Matrix kernel_gram(KernelKind kind, const linalg::Matrix& x,
                           const GpHyperparams& hp);

/// Gram matrices of one training set at varying hyperparameters, with their
/// gradient: the view of the kernel a hyperparameter search needs. The
/// per-dimension squared differences of every pair of rows are cached once
/// (d n(n-1)/2 doubles: 0.6 MB at n = 125, d = 10; 29 MB at n = 600,
/// d = 20), so a Gram costs a weighted sum and one kernel evaluation per
/// pair, and its gradient reuses that evaluation.
class PairwiseGram {
 public:
  PairwiseGram(KernelKind kind, const linalg::Matrix& x);

  /// K(X, X) + noise_variance * I at `hp`: kernel_gram up to rounding.
  /// Remembers each pair's k and slope dk/d(r2) for gradient().
  linalg::Matrix gram(const GpHyperparams& hp);

  /// Sum_ab W_ab dK_ab/dtheta_j at the hyperparameters of the last gram(),
  /// for a symmetric n x n weight matrix W and theta = [log signal_variance,
  /// log lengthscale_0..d-1, log noise_variance] (d + 2 entries). With
  /// W = alpha alpha^T - K^{-1} this is twice the gradient of the log
  /// marginal likelihood (Rasmussen & Williams eq. 5.9).
  std::vector<double> gradient(const linalg::Matrix& weights) const;

  std::size_t rows() const { return n_; }
  std::size_t dim() const { return d_; }

 private:
  KernelKind kind_;
  std::size_t n_;
  std::size_t d_;
  std::vector<double> sq_;  // pair-major: (x_ik - x_jk)^2 for i < j, then k
  GpHyperparams hp_;
  std::vector<double> value_;  // per pair, at hp_
  std::vector<double> slope_;
  bool has_gram_ = false;
};

/// Cross-covariance vector k(X, x*).
std::vector<double> kernel_cross(KernelKind kind, const linalg::Matrix& x,
                                 const std::vector<double>& point,
                                 const GpHyperparams& hp);

/// Cross-covariance matrix K(X, P): x.rows() x points.rows(), column c being
/// kernel_cross(kind, x, points.row(c), hp) bit for bit. Row i holds k(x_i, .)
/// for every point, the layout GaussianProcess::predict_means sweeps (one
/// mean lane per point) and linalg::solve_lower_batch solves (one
/// right-hand side per point). The distances run across points: the points
/// are copied coordinate-major into groups of 32 lanes, and each lane runs
/// linalg::scaled_squared_distance's operations ((x_ik - p_ck) / l_k,
/// squared, summed over ascending k) as vector code; the kernel's exp then
/// runs per pair, as in kernel_cross.
linalg::Matrix kernel_cross_batch(KernelKind kind, const linalg::Matrix& x,
                                  const linalg::Matrix& points, const GpHyperparams& hp);

}  // namespace tunekit::bo
