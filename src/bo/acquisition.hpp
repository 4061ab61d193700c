#pragma once
// Acquisition functions balancing exploration and exploitation
// (paper §III-A), plus the candidate-set + local-refinement maximizer: a
// pool of random and incumbent-local candidates scored as one block through
// GaussianProcess::predict_batch, then a Nelder-Mead refine of the best one
// that scores its points one at a time through predict().

#include <functional>
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
/// drawn; the accepted ones are scored in draw order with one predict_batch,
/// and the first strictly best score wins (a NaN score never does). When no
/// candidate is accepted, rejection sampling returns the first accepted
/// uniform draw. Otherwise the winner seeds the refine (per-point predict());
/// a refined point failing `accept` falls back to the best candidate.
/// Returns the chosen unit-cube point.
std::vector<double> maximize_acquisition(
    const GaussianProcess& gp, AcquisitionKind kind, const AcquisitionParams& params,
    double best_value, const std::vector<double>& incumbent_unit, tunekit::Rng& rng,
    const AcquisitionMaximizerOptions& options, const UnitFilter& accept);

}  // namespace tunekit::bo
