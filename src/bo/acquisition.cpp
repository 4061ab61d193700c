#include "bo/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
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

namespace {

// Relative margin below the best exact score at which a bound prunes.
constexpr double kPruneMargin = 1e-9;

/// An upper bound on acquisition_score(kind, mean, sd, best, params) over
/// every sd in [0, max_sd], NaN mapped to +inf (see best_of_pool).
double score_bound(AcquisitionKind kind, double mean, double max_sd, double best,
                   const AcquisitionParams& params) {
  double bound = 0.0;
  switch (kind) {
    case AcquisitionKind::ExpectedImprovement:
      bound = acquisition_score(kind, mean, max_sd, best, params);
      break;
    case AcquisitionKind::ProbabilityOfImprovement:
      bound = best - mean - params.xi > 0.0
                  ? 1.0
                  : acquisition_score(kind, mean, max_sd, best, params);
      break;
    case AcquisitionKind::LowerConfidenceBound:
      bound = acquisition_score(kind, mean, params.beta >= 0.0 ? max_sd : 0.0, best, params);
      break;
  }
  return std::isnan(bound) ? std::numeric_limits<double>::infinity() : bound;
}

}  // namespace

PoolPick best_of_pool(const GaussianProcess& gp, const linalg::Matrix& pool,
                      AcquisitionKind kind, const AcquisitionParams& params,
                      double best_value) {
  const GaussianProcess::MeanBlock block = gp.predict_means(pool);
  const std::size_t m = pool.rows();
  const double max_sd = gp.prior_stddev();
  std::vector<double> bound(m);
  for (std::size_t c = 0; c < m; ++c) {
    bound[c] = score_bound(kind, block.mean[c], max_sd, best_value, params);
  }
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return bound[a] > bound[b]; });

  // Exact scores of the visited rows; a pruned row keeps NaN, which never
  // wins.
  std::vector<double> score(m, std::numeric_limits<double>::quiet_NaN());
  double best_exact = -std::numeric_limits<double>::infinity();
  PoolPick pick;
  // Visit in rounds of one variance solve each; each round stops at the
  // first bound below the cutoff, and so does the visit.
  constexpr std::size_t kRound = GaussianProcess::kVarianceGroup;
  std::vector<std::size_t> group;
  group.reserve(kRound);
  for (std::size_t next = 0; next < m;) {
    const double cutoff = best_exact - kPruneMargin * std::abs(best_exact);
    group.clear();
    while (next < m && group.size() < kRound && !(bound[order[next]] < cutoff)) {
      group.push_back(order[next++]);
    }
    if (group.empty()) break;
    const std::vector<double> variance = gp.predict_variances(block.cross, group);
    pick.variance_solves += group.size();
    for (std::size_t q = 0; q < group.size(); ++q) {
      const std::size_t c = group[q];
      score[c] = acquisition_score(
          kind, block.mean[c], GaussianProcess::Prediction{block.mean[c], variance[q]}.stddev(),
          best_value, params);
      if (score[c] > best_exact) best_exact = score[c];
    }
  }

  for (std::size_t c = 0; c < m; ++c) {
    if (score[c] > pick.score) {
      pick.score = score[c];
      pick.row = c;
    }
  }
  return pick;
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
  // order, then pick from them as one block.
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

  const PoolPick pick = best_of_pool(gp, pool, kind, params, best_value);
  if (!pick.row) {
    // No candidate survived the feasibility filter; fall back to rejection
    // sampling so callers always get a point.
    for (std::size_t tries = 0; tries < 50000; ++tries) {
      for (std::size_t k = 0; k < d; ++k) candidate[k] = rng.uniform();
      if (!accept || accept(candidate)) return candidate;
    }
    throw std::runtime_error(
        "maximize_acquisition: feasibility filter rejected every candidate");
  }

  std::vector<double> best_point = pool.row(*pick.row);
  const double best_score = pick.score;
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
