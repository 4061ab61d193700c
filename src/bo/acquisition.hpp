#pragma once
// Acquisition functions balancing exploration and exploitation
// (paper §III-A), plus the candidate-set + local-refinement maximizer: a
// pool of random and incumbent-local candidates scored through best_of_pool,
// then a Nelder-Mead refine of the best one that scores its points one at a
// time through predict().

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "bo/gp.hpp"
#include "common/rng.hpp"

namespace tunekit::bo {

enum class AcquisitionKind { ExpectedImprovement, ProbabilityOfImprovement, LowerConfidenceBound };

const char* to_string(AcquisitionKind kind);

struct AcquisitionParams {
  /// EI / PI exploration jitter.
  double xi = 0.01;
  /// LCB exploration weight (we minimize, so LCB = mean - beta * sd; its
  /// score is the negated bound).
  double beta = 2.0;
};

/// Standard normal pdf / cdf.
double normal_pdf(double z);
double normal_cdf(double z);

/// Acquisition score at a predicted (mean, sd) given the incumbent best
/// objective value. Higher is better (for all kinds).
double acquisition_score(AcquisitionKind kind, double mean, double sd, double best,
                         const AcquisitionParams& params);

/// The winner of a candidate pool under best_of_pool.
struct PoolPick {
  /// The winning row; empty when no score beats -inf (an empty pool, or
  /// every score NaN or -inf).
  std::optional<std::size_t> row;
  /// Its acquisition score (-inf when there is no winner).
  double score = -std::numeric_limits<double>::infinity();
  /// Candidates whose variance was computed (one O(N^2) forward
  /// substitution each); the others were pruned by their bound.
  std::size_t variance_solves = 0;
};

/// The row of `pool` (one unit-cube point per row) with the highest
/// acquisition_score under `gp`: the first strictly best in row order, a NaN
/// score never winning — exactly the row that scoring every row with
/// predict() picks, with the same score bits.
///
/// Every mean is computed (GaussianProcess::predict_means, O(N) per row once
/// the cross-kernel block is built), but a variance only where the score can
/// still win. No predictive sd exceeds gp.prior_stddev(), so each row's score
/// has an upper bound that needs no variance: for EI the score at the prior
/// sd (EI rises with sd); for PI, 1 when best - mean - xi > 0 (PI falls with
/// sd toward 1/2 then) and otherwise the score at the prior sd; for LCB the
/// score at the prior sd when beta >= 0, at sd 0 when beta < 0 (it is linear
/// in sd). A NaN bound counts as +inf. Rows are visited in descending order
/// of bound (stable, so ties stay in row order) and their variances computed
/// in rounds of GaussianProcess::kVarianceGroup, one predict_variances call
/// each. The visit stops at the first bound below the best exact score less
/// a relative margin of 1e-9 |best|, which keeps rounding in a bound from
/// pruning a tie. A pruned row scores below the maximum, so it cannot be the
/// pick. Where the model is confident everywhere, the bound is loose and
/// every row is scored. Throws as predict_means does.
PoolPick best_of_pool(const GaussianProcess& gp, const linalg::Matrix& pool,
                      AcquisitionKind kind, const AcquisitionParams& params,
                      double best_value);

struct AcquisitionMaximizerOptions {
  std::size_t n_candidates = 512;
  /// Fraction of candidates drawn as perturbations of the incumbent best
  /// point (local exploitation); the rest are uniform.
  double local_fraction = 0.25;
  double local_sigma = 0.08;
  /// Nelder-Mead refinement iterations from the best candidate (0 = none).
  std::size_t refine_iters = 40;
};

/// A test on unit-cube points (e.g. constraint feasibility after decoding).
using UnitFilter = std::function<bool(const std::vector<double>&)>;

/// Maximize the acquisition over the unit cube; `incumbent_unit` may be
/// empty (no local candidates then). The n_candidates points are drawn first
/// (the local ones, then the uniform ones), each passed to `accept` as it is
/// drawn; the accepted ones, in draw order, go to best_of_pool, so the first
/// strictly best score wins (a NaN score never does). When there is no
/// winner (no candidate accepted, or every score NaN or -inf), rejection
/// sampling returns the first accepted uniform draw. Otherwise the winner
/// seeds the refine (per-point predict()); a refined point failing `accept`
/// falls back to the best candidate. Returns the chosen unit-cube point.
std::vector<double> maximize_acquisition(
    const GaussianProcess& gp, AcquisitionKind kind, const AcquisitionParams& params,
    double best_value, const std::vector<double>& incumbent_unit, tunekit::Rng& rng,
    const AcquisitionMaximizerOptions& options, const UnitFilter& accept);

}  // namespace tunekit::bo
