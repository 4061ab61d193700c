#include "bo/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "bo/nelder_mead.hpp"

namespace tunekit::bo {

const char* to_string(AcquisitionKind kind) {
  switch (kind) {
    case AcquisitionKind::ExpectedImprovement: return "ei";
    case AcquisitionKind::ProbabilityOfImprovement: return "pi";
    case AcquisitionKind::LowerConfidenceBound: return "lcb";
  }
  return "?";
}

double normal_pdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

double acquisition_score(AcquisitionKind kind, double mean, double sd, double best,
                         const AcquisitionParams& params) {
  switch (kind) {
    case AcquisitionKind::ExpectedImprovement: {
      if (sd <= 1e-12) return std::max(0.0, best - mean - params.xi);
      const double z = (best - mean - params.xi) / sd;
      return (best - mean - params.xi) * normal_cdf(z) + sd * normal_pdf(z);
    }
    case AcquisitionKind::ProbabilityOfImprovement: {
      if (sd <= 1e-12) return best - mean - params.xi > 0.0 ? 1.0 : 0.0;
      return normal_cdf((best - mean - params.xi) / sd);
    }
    case AcquisitionKind::LowerConfidenceBound:
      // Minimization: prefer the lowest optimistic bound.
      return -(mean - params.beta * sd);
  }
  return 0.0;
}

std::vector<double> maximize_acquisition(
    const GaussianProcess& gp, AcquisitionKind kind, const AcquisitionParams& params,
    double best_value, const std::vector<double>& incumbent_unit, tunekit::Rng& rng,
    const AcquisitionMaximizerOptions& options, const UnitFilter& accept) {
  if (!gp.fitted()) throw std::runtime_error("maximize_acquisition: GP not fitted");
  const std::size_t d = gp.dim();

  auto score_at = [&](const std::vector<double>& u) {
    const auto pred = gp.predict(u);
    return acquisition_score(kind, pred.mean, pred.stddev(), best_value, params);
  };

  const std::size_t n_local =
      incumbent_unit.empty()
          ? 0
          : static_cast<std::size_t>(options.local_fraction *
                                     static_cast<double>(options.n_candidates));

  // Draw the whole pool first, keeping the accepted candidates in draw
  // order, then score them as one block.
  linalg::Matrix pool(options.n_candidates, d);
  std::size_t n_accepted = 0;
  std::vector<double> candidate(d);
  for (std::size_t c = 0; c < options.n_candidates; ++c) {
    if (c < n_local) {
      for (std::size_t k = 0; k < d; ++k) {
        candidate[k] =
            std::clamp(incumbent_unit[k] + rng.normal(0.0, options.local_sigma), 0.0, 1.0);
      }
    } else {
      for (std::size_t k = 0; k < d; ++k) candidate[k] = rng.uniform();
    }
    if (accept && !accept(candidate)) continue;
    std::copy(candidate.begin(), candidate.end(), pool.row_ptr(n_accepted++));
  }
  if (n_accepted < pool.rows()) {
    linalg::Matrix kept(n_accepted, d);
    std::copy(pool.data(), pool.data() + n_accepted * d, kept.data());
    pool = std::move(kept);
  }

  // The first strictly best score wins; a NaN score never does.
  std::vector<double> best_point;
  double best_score = -std::numeric_limits<double>::infinity();
  const auto preds = gp.predict_batch(pool);
  for (std::size_t c = 0; c < preds.size(); ++c) {
    const double s =
        acquisition_score(kind, preds[c].mean, preds[c].stddev(), best_value, params);
    if (s > best_score) {
      best_score = s;
      best_point = pool.row(c);
    }
  }

  if (best_point.empty()) {
    // No candidate survived the feasibility filter; fall back to rejection
    // sampling so callers always get a point.
    for (std::size_t tries = 0; tries < 50000; ++tries) {
      for (std::size_t k = 0; k < d; ++k) candidate[k] = rng.uniform();
      if (!accept || accept(candidate)) return candidate;
    }
    throw std::runtime_error(
        "maximize_acquisition: feasibility filter rejected every candidate");
  }

  if (options.refine_iters > 0) {
    NelderMeadOptions nm;
    nm.max_iters = options.refine_iters;
    nm.initial_step = 0.05;
    nm.lower.assign(d, 0.0);
    nm.upper.assign(d, 1.0);
    const auto res = nelder_mead([&](const std::vector<double>& u) { return -score_at(u); },
                                 best_point, nm);
    if (-res.value > best_score && (!accept || accept(res.x))) {
      best_point = res.x;
    }
  }
  return best_point;
}

}  // namespace tunekit::bo
