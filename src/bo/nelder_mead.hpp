#pragma once
// Nelder-Mead downhill simplex, used (a) to refine acquisition maxima
// inside the unit cube and (b) to fit AdditiveGp's hyperparameters.
// Derivative-free on purpose: neither surface has a cheap exact gradient
// here. The full GP's log marginal likelihood does (one K^{-1} per
// evaluation), so GaussianProcess::fit_with_hyperopt uses the projected
// L-BFGS of bo/lbfgs.hpp instead.

#include <functional>
#include <vector>

namespace tunekit::bo {

struct NelderMeadOptions {
  std::size_t max_iters = 200;
  /// Convergence: simplex function-value spread below this.
  double f_tol = 1e-9;
  /// Convergence also requires the simplex diameter below this — equal
  /// function values at distinct vertices (symmetric objectives) must not
  /// terminate the search; they force a shrink instead.
  double x_tol = 1e-7;
  /// Initial simplex step per coordinate.
  double initial_step = 0.1;
  /// Optional box bounds applied by clamping (empty = unbounded).
  std::vector<double> lower;
  std::vector<double> upper;
};

struct NelderMeadResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
};

/// Minimize `f` starting from `x0`.
NelderMeadResult nelder_mead(const std::function<double(const std::vector<double>&)>& f,
                             std::vector<double> x0, const NelderMeadOptions& options = {});

}  // namespace tunekit::bo
