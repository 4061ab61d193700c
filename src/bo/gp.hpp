#pragma once
// Gaussian-process surrogate over unit-cube inputs.
//
// Targets are standardized internally; an optional prior-mean function (the
// transfer-learning hook) is subtracted before standardization so the GP
// models the *residual* between the target task and the source task's
// prediction — the mechanism behind the CS1 -> CS2 transfer in the paper.
//
// Training is the classic O(N^3) Cholesky pipeline, which is exactly the
// cost the paper cites as the reason joint high-dimensional searches need
// disproportionally many evaluations (bench/perf_gp_scaling measures it).

#include <functional>
#include <optional>
#include <vector>

#include "bo/kernels.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace tunekit::bo {

class GaussianProcess {
 public:
  explicit GaussianProcess(KernelKind kind = KernelKind::Matern52) : kind_(kind) {}

  KernelKind kernel_kind() const { return kind_; }

  /// Prior mean subtracted from targets before fitting (transfer learning);
  /// call before fit(). Empty function = zero prior mean.
  void set_prior_mean(std::function<double(const std::vector<double>&)> prior);
  bool has_prior_mean() const { return static_cast<bool>(prior_mean_); }

  void set_hyperparams(GpHyperparams hp) { hp_ = std::move(hp); }
  const GpHyperparams& hyperparams() const { return hp_; }

  /// Fit on x (rows = points, unit cube) and y using current hyperparameters
  /// (defaults to isotropic if none were set for this dimension).
  void fit(linalg::Matrix x, std::vector<double> y);

  /// Fit with a hyperparameter search: projected L-BFGS (bo/lbfgs.hpp) on
  /// the negative log posterior gp_neg_log_posterior over theta = [log sv,
  /// log lengthscales, log nv] in the box lengthscale [1e-2, 1e2], signal
  /// variance [1e-4, 1e4], noise variance [1e-8, 1]. The fixed prior
  /// log l_k ~ N(log 0.5, 1) on every lengthscale keeps a converged search
  /// off the flat far-lengthscale plateau that small designs open up.
  /// Restart 0 starts from the current hyperparameters (clamped into the
  /// box), later ones from draws of `rng`; each runs at most `max_iters`
  /// iterations. If no restart reaches a factorable Gram, the previous
  /// hyperparameters are kept (with a warning). Returns the number of
  /// objective-and-gradient evaluations made.
  std::size_t fit_with_hyperopt(linalg::Matrix x, std::vector<double> y, tunekit::Rng& rng,
                                std::size_t n_restarts = 3, std::size_t max_iters = 120);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
    double stddev() const;
  };

  Prediction predict(const std::vector<double>& point) const;

  /// predict() for every row of `points` (one point per row), entry c being
  /// bit-identical to predict(points.row(c)): predict_means over every row,
  /// then predict_variances over every row. For scoring a whole block of
  /// points; a single point is cheaper through predict(). Throws as
  /// predict() does (before fit(), on a column count other than dim()); zero
  /// rows give an empty result.
  std::vector<Prediction> predict_batch(const linalg::Matrix& points) const;

  /// The first half of predict_batch. `cross` is K(X, P) for the training
  /// rows X and every row of `points` (kernel_cross_batch: n_points() x
  /// points.rows()); mean[c] is bit-identical to predict(points.row(c)).mean
  /// — the same sum k . alpha in ascending training index, and one
  /// prior-mean call per row. O(N) per point once `cross` is built.
  struct MeanBlock {
    linalg::Matrix cross;
    std::vector<double> mean;
  };
  MeanBlock predict_means(const linalg::Matrix& points) const;

  /// The second half: the variance of the points at `rows` (indices into
  /// the points whose block predict_means returned), entry j bit-identical
  /// to predict(points.row(rows[j])).variance — the same forward
  /// substitution L v = k and variance y_scale^2 max(0, k** - v . v). Their
  /// columns of `cross` are gathered in groups of kVarianceGroup and each
  /// group runs one multi-RHS solve (linalg::solve_lower_batch), where
  /// predict() runs one latency-bound substitution per point: O(N^2) per
  /// chosen point, paid only for the points chosen. Every variance is at
  /// most prior_stddev()^2.
  std::vector<double> predict_variances(const linalg::Matrix& cross,
                                        const std::vector<std::size_t>& rows) const;

  /// Points per solve of predict_variances: one column group of
  /// linalg::solve_lower_batch, and an N x 32 workspace (29 KB at N = 115)
  /// that stays in L1/L2 through the solve. A caller choosing points in
  /// rounds loses nothing with rounds of this size.
  static constexpr std::size_t kVarianceGroup = 32;

  /// The prior standard deviation y_scale sqrt(signal + noise variance),
  /// rounded so that predict(x).stddev() <= prior_stddev() holds exactly in
  /// floating point for every x: a variance-free bound on the predictive
  /// uncertainty. Throws before fit().
  double prior_stddev() const;

  /// Log marginal likelihood of the current fit (standardized targets);
  /// the lengthscale prior of the search is not included.
  double log_marginal_likelihood() const { return lml_; }

  /// Leave-one-out cross-validation diagnostics (Rasmussen & Williams
  /// §5.4.2), computed from the existing Cholesky factor (diag K^{-1} via
  /// linalg::inverse_from_cholesky) without refitting.
  /// Use to judge whether the surrogate is trustworthy before relying on
  /// its suggestions.
  struct LooDiagnostics {
    /// LOO predictive mean/variance per training point (raw target units).
    std::vector<double> mean;
    std::vector<double> variance;
    /// (y_i − μ_i) / σ_i — should look standard normal when well specified.
    std::vector<double> standardized_residuals;
    double rmse = 0.0;
    /// Fraction of targets inside their 95% predictive interval.
    double coverage95 = 0.0;
    /// Mean log predictive density (higher is better).
    double mean_log_density = 0.0;
  };
  LooDiagnostics leave_one_out() const;

  bool fitted() const { return fitted_; }
  std::size_t n_points() const { return x_.rows(); }
  std::size_t dim() const { return x_.cols(); }

  /// Diagonal jitter the last (re)fit needed to factor the Gram matrix
  /// (0 = it was numerically PD as-is). A persistently non-zero value means
  /// the model is rank-deficient — duplicate training rows with near-zero
  /// noise — and its uncertainty estimates should be treated with suspicion.
  double last_jitter() const { return last_jitter_; }

 private:
  /// Residuals against the prior mean, standardized into y_std_.
  void standardize();
  /// Gram, factor, alpha and LML at the current hyperparameters.
  void factor();
  /// The mean and variance in raw target units from their standardized
  /// values; `prior` is the prior mean at the point (0 without one).
  double unstandardize_mean(double prior, double mean_std) const;
  double unstandardize_variance(double var_std) const;

  KernelKind kind_;
  GpHyperparams hp_;
  std::function<double(const std::vector<double>&)> prior_mean_;

  linalg::Matrix x_;
  std::vector<double> y_raw_;
  std::vector<double> y_std_;  // standardized residuals
  double y_shift_ = 0.0;
  double y_scale_ = 1.0;

  linalg::Matrix chol_;
  std::vector<double> alpha_;
  double lml_ = 0.0;
  double last_jitter_ = 0.0;
  bool fitted_ = false;
};

/// The hyperparameter search's objective: -(LML + log prior) of standardized
/// targets `y` on the training set of `kernel`, at theta = [log
/// signal_variance, log lengthscale_0..d-1, log noise_variance], the prior
/// being log l_k ~ N(log 0.5, 1) on every lengthscale (constants dropped).
/// Writes the analytic gradient (Rasmussen & Williams eq. 5.9, with K^{-1}
/// from the same factor) into `grad`. A Gram that cannot be factored even
/// with jitter scores 1e12 with a zero gradient.
double gp_neg_log_posterior(PairwiseGram& kernel, const std::vector<double>& y,
                            const std::vector<double>& theta, std::vector<double>& grad);

}  // namespace tunekit::bo
