#pragma once
// Box-constrained L-BFGS with projected steps, used to fit GP
// hyperparameters: the negative log posterior has a cheap exact gradient
// (one K^{-1} per evaluation), so a quasi-Newton search converges in tens of
// evaluations where a simplex needs hundreds.
//
// Each iteration fixes the variables that sit on a bound with the gradient
// pushing outward, takes the two-loop L-BFGS direction in the others, and
// backtracks (Armijo) along the projected path x(t) = P(x + t d). A failed
// line search drops the curvature pairs and retries with the projected
// steepest-descent step before giving up.
//
// The search stops when the projected gradient's max-norm,
// max_i |x_i - P(x - g)_i|, falls below 1e-3, when one iteration decreases
// f by less than 1e-7 max(1, |f|), or after max_iters iterations.

#include <functional>
#include <vector>

namespace tunekit::bo {

struct LbfgsOptions {
  std::size_t max_iters = 100;
  /// The box, one bound per coordinate (lower <= upper); a start outside
  /// it is projected in.
  std::vector<double> lower;
  std::vector<double> upper;
};

struct LbfgsResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t iterations = 0;
  /// Calls of the objective (each returns value and gradient).
  std::size_t evaluations = 0;
};

/// f(x, grad) returns f at x and writes its gradient into `grad` (sized to
/// x). A large finite value (e.g. 1e12 for an infeasible point) makes the
/// line search back off.
using ValueAndGradient =
    std::function<double(const std::vector<double>& x, std::vector<double>& grad)>;

/// Minimize `f` from `x0` inside the box.
LbfgsResult projected_lbfgs(const ValueAndGradient& f, std::vector<double> x0,
                            const LbfgsOptions& options = {});

}  // namespace tunekit::bo
