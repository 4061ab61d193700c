#include "bo/gp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <stdexcept>

#include "bo/lbfgs.hpp"
#include "common/log.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/vecops.hpp"

namespace tunekit::bo {

double GaussianProcess::Prediction::stddev() const {
  return std::sqrt(std::max(0.0, variance));
}

void GaussianProcess::set_prior_mean(
    std::function<double(const std::vector<double>&)> prior) {
  prior_mean_ = std::move(prior);
  fitted_ = false;
}

namespace {

// The hyperparameter search's log-space box and lengthscale prior.
const double kLogLsLo = std::log(1e-2), kLogLsHi = std::log(1e2);
const double kLogSvLo = std::log(1e-4), kLogSvHi = std::log(1e4);
const double kLogNvLo = std::log(1e-8), kLogNvHi = std::log(1.0);
const double kLogLsPriorMean = std::log(0.5);  // log l_k ~ N(kLogLsPriorMean, 1)
// The score of a Gram that cannot be factored.
constexpr double kFailed = 1e12;

/// Cholesky factor of a Gram with the GP's jitter escalation: the quiet
/// ladder (1e-10 → 1e-6) handles ordinary round-off; if the Gram is
/// genuinely rank-deficient — duplicate configs with near-zero noise,
/// exactly what a tuning session that retries crashed candidates produces —
/// a second, wider ladder up to 1e-2 is tried, loudly, before the failure
/// propagates (the hyperparameter search then scores the point at 1e12).
linalg::Matrix factor_gram(const linalg::Matrix& gram, double* jitter) {
  try {
    return linalg::cholesky(gram, 1e-10, 1e-6, jitter);
  } catch (const std::exception&) {
    linalg::Matrix l = linalg::cholesky(gram, 1e-5, 1e-2, jitter);
    log_warn("GP: Gram matrix rank-deficient; factored with escalated jitter ", *jitter,
             " (duplicate training points with near-zero noise?)");
    return l;
  }
}

double lml_from_factor(const linalg::Matrix& chol, const std::vector<double>& y,
                       const std::vector<double>& alpha) {
  // LML = -1/2 y^T alpha - 1/2 log|K| - n/2 log 2π   (standardized y).
  return -0.5 * linalg::dot(y, alpha) - 0.5 * linalg::log_det_from_cholesky(chol) -
         0.5 * static_cast<double>(y.size()) * std::log(2.0 * std::numbers::pi);
}

GpHyperparams unpack(const std::vector<double>& theta, std::size_t d) {
  GpHyperparams hp;
  hp.signal_variance = std::exp(theta[0]);
  hp.lengthscales.resize(d);
  for (std::size_t i = 0; i < d; ++i) hp.lengthscales[i] = std::exp(theta[1 + i]);
  hp.noise_variance = std::exp(theta[1 + d]);
  return hp;
}

}  // namespace

double gp_neg_log_posterior(PairwiseGram& kernel, const std::vector<double>& y,
                            const std::vector<double>& theta, std::vector<double>& grad) {
  const std::size_t n = kernel.rows();
  const std::size_t d = kernel.dim();
  if (y.size() != n || theta.size() != d + 2) {
    throw std::invalid_argument("gp_neg_log_posterior: arity mismatch");
  }
  grad.assign(d + 2, 0.0);
  const GpHyperparams hp = unpack(theta, d);
  linalg::Matrix chol;
  try {
    double jitter = 0.0;
    chol = factor_gram(kernel.gram(hp), &jitter);
  } catch (const std::exception&) {
    return kFailed;
  }
  const std::vector<double> alpha = linalg::solve_with_cholesky(chol, y);
  double value = -lml_from_factor(chol, y, alpha);

  // d(-LML)/dtheta_j = -1/2 tr((alpha alpha^T - K^{-1}) dK/dtheta_j).
  linalg::Matrix w = linalg::inverse_from_cholesky(chol);
  for (std::size_t i = 0; i < n; ++i) {
    double* wi = w.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) wi[j] = alpha[i] * alpha[j] - wi[j];
  }
  const std::vector<double> dk = kernel.gradient(w);
  for (std::size_t j = 0; j < d + 2; ++j) grad[j] = -0.5 * dk[j];

  for (std::size_t k = 0; k < d; ++k) {
    const double z = theta[1 + k] - kLogLsPriorMean;
    value += 0.5 * z * z;
    grad[1 + k] += z;
  }
  const bool finite = std::isfinite(value) && std::all_of(grad.begin(), grad.end(), [](double g) {
                        return std::isfinite(g);
                      });
  if (!finite || value >= kFailed) {
    grad.assign(d + 2, 0.0);
    return kFailed;
  }
  return value;
}

void GaussianProcess::fit(linalg::Matrix x, std::vector<double> y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("GaussianProcess::fit: bad training data");
  }
  x_ = std::move(x);
  y_raw_ = std::move(y);
  if (hp_.lengthscales.size() != x_.cols()) {
    hp_ = GpHyperparams::isotropic(x_.cols());
  }
  standardize();
  factor();
}

void GaussianProcess::standardize() {
  const std::size_t n = x_.rows();
  std::vector<double> resid(n);
  for (std::size_t i = 0; i < n; ++i) {
    resid[i] = y_raw_[i] - (prior_mean_ ? prior_mean_(x_.row(i)) : 0.0);
  }
  double mean = 0.0;
  for (double v : resid) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : resid) var += (v - mean) * (v - mean);
  var = n > 1 ? var / static_cast<double>(n - 1) : 1.0;
  y_shift_ = mean;
  y_scale_ = var > 1e-300 ? std::sqrt(var) : 1.0;

  y_std_.resize(n);
  for (std::size_t i = 0; i < n; ++i) y_std_[i] = (resid[i] - y_shift_) / y_scale_;
}

void GaussianProcess::factor() {
  last_jitter_ = 0.0;
  chol_ = factor_gram(kernel_gram(kind_, x_, hp_), &last_jitter_);
  alpha_ = linalg::solve_with_cholesky(chol_, y_std_);
  lml_ = lml_from_factor(chol_, y_std_, alpha_);
  fitted_ = true;
}

std::size_t GaussianProcess::fit_with_hyperopt(linalg::Matrix x, std::vector<double> y,
                                               tunekit::Rng& rng, std::size_t n_restarts,
                                               std::size_t max_iters) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("GaussianProcess::fit_with_hyperopt: bad data");
  }
  x_ = std::move(x);
  y_raw_ = std::move(y);
  const std::size_t d = x_.cols();
  if (hp_.lengthscales.size() != d) hp_ = GpHyperparams::isotropic(d);
  standardize();  // once per search: the targets do not depend on theta

  PairwiseGram kernel(kind_, x_);  // freed when the search ends
  const ValueAndGradient objective = [&](const std::vector<double>& theta,
                                         std::vector<double>& grad) {
    return gp_neg_log_posterior(kernel, y_std_, theta, grad);
  };
  LbfgsOptions opt;
  opt.max_iters = max_iters;
  opt.lower.assign(d + 2, kLogLsLo);
  opt.upper.assign(d + 2, kLogLsHi);
  opt.lower[0] = kLogSvLo;
  opt.upper[0] = kLogSvHi;
  opt.lower[d + 1] = kLogNvLo;
  opt.upper[d + 1] = kLogNvHi;

  std::vector<double> best_theta;
  double best_value = std::numeric_limits<double>::infinity();
  std::size_t evaluations = 0;
  for (std::size_t restart = 0; restart < std::max<std::size_t>(1, n_restarts);
       ++restart) {
    std::vector<double> theta0(d + 2);
    if (restart == 0) {
      // Warm start from the current hyperparameters.
      theta0[0] = std::log(hp_.signal_variance);
      for (std::size_t i = 0; i < d; ++i) theta0[1 + i] = std::log(hp_.lengthscales[i]);
      theta0[1 + d] = std::log(std::max(hp_.noise_variance, 1e-8));
    } else {
      theta0[0] = rng.uniform(std::log(0.1), std::log(10.0));
      for (std::size_t i = 0; i < d; ++i) {
        theta0[1 + i] = rng.uniform(std::log(0.05), std::log(2.0));
      }
      theta0[1 + d] = rng.uniform(std::log(1e-6), std::log(1e-2));
    }
    const auto res = projected_lbfgs(objective, std::move(theta0), opt);
    evaluations += res.evaluations;
    if (res.value < best_value) {
      best_value = res.value;
      best_theta = res.x;
    }
  }

  if (!best_theta.empty() && best_value < kFailed) {
    hp_ = unpack(best_theta, d);
  } else {
    log_warn("GP hyperopt failed to find a PD model; keeping previous hyperparameters");
  }
  // Through kernel_gram, as fit() does, not the search's cached Gram (equal
  // up to rounding): a session ask that reuses these values refits with
  // fit() and must propose exactly what this searching ask proposes.
  factor();
  return evaluations;
}

GaussianProcess::LooDiagnostics GaussianProcess::leave_one_out() const {
  if (!fitted_) throw std::runtime_error("GaussianProcess::leave_one_out before fit");
  const std::size_t n = x_.rows();

  const linalg::Matrix kinv = linalg::inverse_from_cholesky(chol_);

  LooDiagnostics out;
  out.mean.resize(n);
  out.variance.resize(n);
  out.standardized_residuals.resize(n);
  double sse = 0.0;
  std::size_t covered = 0;
  double log_density = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Standardized-unit LOO prediction (R&W eq. 5.12).
    const double var_std = 1.0 / kinv(i, i);
    const double mean_std = y_std_[i] - alpha_[i] * var_std;
    const double prior = prior_mean_ ? prior_mean_(x_.row(i)) : 0.0;
    out.mean[i] = prior + y_shift_ + y_scale_ * mean_std;
    out.variance[i] = y_scale_ * y_scale_ * var_std;
    const double sd = std::sqrt(std::max(out.variance[i], 1e-300));
    const double resid = y_raw_[i] - out.mean[i];
    out.standardized_residuals[i] = resid / sd;
    sse += resid * resid;
    if (std::abs(resid) <= 1.96 * sd) ++covered;
    log_density += -0.5 * std::log(2.0 * std::numbers::pi * out.variance[i]) -
                   0.5 * resid * resid / out.variance[i];
  }
  out.rmse = std::sqrt(sse / static_cast<double>(n));
  out.coverage95 = static_cast<double>(covered) / static_cast<double>(n);
  out.mean_log_density = log_density / static_cast<double>(n);
  return out;
}

GaussianProcess::Prediction GaussianProcess::predict(const std::vector<double>& point) const {
  if (!fitted_) throw std::runtime_error("GaussianProcess::predict before fit");
  if (point.size() != x_.cols()) {
    throw std::invalid_argument("GaussianProcess::predict: dimension mismatch");
  }
  const std::vector<double> k = kernel_cross(kind_, x_, point, hp_);
  const double mean_std = linalg::dot(k, alpha_);
  const std::vector<double> v = linalg::solve_lower(chol_, k);
  const double k_self = hp_.signal_variance + hp_.noise_variance;
  return {unstandardize_mean(prior_mean_ ? prior_mean_(point) : 0.0, mean_std),
          unstandardize_variance(std::max(0.0, k_self - linalg::dot(v, v)))};
}

std::vector<GaussianProcess::Prediction> GaussianProcess::predict_batch(
    const linalg::Matrix& points) const {
  const MeanBlock block = predict_means(points);
  std::vector<std::size_t> rows(points.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  const std::vector<double> variance = predict_variances(block.cross, rows);
  std::vector<Prediction> out(points.rows());
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = {block.mean[c], variance[c]};
  return out;
}

GaussianProcess::MeanBlock GaussianProcess::predict_means(const linalg::Matrix& points) const {
  if (!fitted_) throw std::runtime_error("GaussianProcess::predict_means before fit");
  if (points.cols() != x_.cols()) {
    throw std::invalid_argument("GaussianProcess::predict_means: dimension mismatch");
  }
  MeanBlock block{kernel_cross_batch(kind_, x_, points, hp_), {}};
  // Row i of the block holds k(x_i, .) for every point, so each lane sums
  // in predict()'s order.
  const std::size_t m = points.rows();
  std::vector<double> mean_std(m, 0.0);
  for (std::size_t i = 0; i < x_.rows(); ++i) {
    const double* ki = block.cross.row_ptr(i);
    for (std::size_t c = 0; c < m; ++c) mean_std[c] += ki[c] * alpha_[i];
  }
  block.mean.resize(m);
  for (std::size_t c = 0; c < m; ++c) {
    const double prior = prior_mean_ ? prior_mean_(points.row(c)) : 0.0;
    block.mean[c] = unstandardize_mean(prior, mean_std[c]);
  }
  return block;
}

std::vector<double> GaussianProcess::predict_variances(
    const linalg::Matrix& cross, const std::vector<std::size_t>& rows) const {
  if (!fitted_) throw std::runtime_error("GaussianProcess::predict_variances before fit");
  const std::size_t n = x_.rows();
  if (cross.rows() != n) {
    throw std::invalid_argument("GaussianProcess::predict_variances: block shape mismatch");
  }
  for (std::size_t r : rows) {
    if (r >= cross.cols()) {
      throw std::out_of_range("GaussianProcess::predict_variances: row out of range");
    }
  }
  const double k_self = hp_.signal_variance + hp_.noise_variance;
  std::vector<double> out;
  out.reserve(rows.size());
  for (std::size_t first = 0; first < rows.size(); first += kVarianceGroup) {
    const std::size_t m = std::min(kVarianceGroup, rows.size() - first);
    // Gather the group's columns; the solve turns row i into row i of
    // V = L^{-1} K, and each lane sums v . v in predict()'s order.
    linalg::Matrix kv(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      const double* ci = cross.row_ptr(i);
      double* kvi = kv.row_ptr(i);
      for (std::size_t q = 0; q < m; ++q) kvi[q] = ci[rows[first + q]];
    }
    linalg::solve_lower_batch(chol_, kv);
    std::array<double, kVarianceGroup> vv{};
    for (std::size_t i = 0; i < n; ++i) {
      const double* vi = kv.row_ptr(i);
      for (std::size_t q = 0; q < m; ++q) vv[q] += vi[q] * vi[q];
    }
    for (std::size_t q = 0; q < m; ++q) {
      out.push_back(unstandardize_variance(std::max(0.0, k_self - vv[q])));
    }
  }
  return out;
}

double GaussianProcess::prior_stddev() const {
  if (!fitted_) throw std::runtime_error("GaussianProcess::prior_stddev before fit");
  // predict()'s variance with v . v = 0: k** - v . v <= k** and the scaling
  // are monotone in floating point, so no prediction exceeds this one.
  return Prediction{0.0, unstandardize_variance(hp_.signal_variance + hp_.noise_variance)}
      .stddev();
}

double GaussianProcess::unstandardize_mean(double prior, double mean_std) const {
  return prior + y_shift_ + y_scale_ * mean_std;
}

double GaussianProcess::unstandardize_variance(double var_std) const {
  return y_scale_ * y_scale_ * var_std;
}

}  // namespace tunekit::bo
