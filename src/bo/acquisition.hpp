#pragma once
// Acquisition functions balancing exploration and exploitation
// (paper §III-A), plus the candidate-set + local-refinement maximizer.

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
/// empty (no local candidates then). `accept` filters candidates; refined
/// points failing `accept` fall back to the best accepted candidate.
/// Returns the chosen unit-cube point.
std::vector<double> maximize_acquisition(
    const GaussianProcess& gp, AcquisitionKind kind, const AcquisitionParams& params,
    double best_value, const std::vector<double>& incumbent_unit, tunekit::Rng& rng,
    const AcquisitionMaximizerOptions& options, const UnitFilter& accept);

}  // namespace tunekit::bo
