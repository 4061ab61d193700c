#include "bo/acquisition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bo/nelder_mead.hpp"
#include "core/app_registry.hpp"
#include "core/tunable_app.hpp"
#include "search/objective.hpp"
#include "search/samplers.hpp"

namespace tunekit::bo {
namespace {

TEST(NormalFunctions, PdfCdfValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804, 1e-9);
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(normal_cdf(8.0), 1.0, 1e-9);
}

TEST(ExpectedImprovement, ZeroWhenFarWorseThanBest) {
  AcquisitionParams p;
  const double ei =
      acquisition_score(AcquisitionKind::ExpectedImprovement, 100.0, 0.1, 0.0, p);
  EXPECT_NEAR(ei, 0.0, 1e-9);
}

TEST(ExpectedImprovement, PositiveWhenLikelyBetter) {
  AcquisitionParams p;
  const double ei =
      acquisition_score(AcquisitionKind::ExpectedImprovement, -1.0, 0.5, 0.0, p);
  EXPECT_GT(ei, 0.9);
}

TEST(ExpectedImprovement, IncreasesWithUncertainty) {
  AcquisitionParams p;
  // Same mean as the incumbent: improvement comes only from variance.
  const double lo = acquisition_score(AcquisitionKind::ExpectedImprovement, 0.0, 0.1, 0.0, p);
  const double hi = acquisition_score(AcquisitionKind::ExpectedImprovement, 0.0, 1.0, 0.0, p);
  EXPECT_GT(hi, lo);
}

TEST(ExpectedImprovement, DeterministicLimit) {
  AcquisitionParams p;
  p.xi = 0.0;
  // sd -> 0: EI = max(0, best - mean).
  EXPECT_NEAR(acquisition_score(AcquisitionKind::ExpectedImprovement, 1.0, 0.0, 3.0, p),
              2.0, 1e-12);
  EXPECT_DOUBLE_EQ(
      acquisition_score(AcquisitionKind::ExpectedImprovement, 5.0, 0.0, 3.0, p), 0.0);
}

TEST(ProbabilityOfImprovement, BoundsAndMonotonicity) {
  AcquisitionParams p;
  p.xi = 0.0;
  const double worse =
      acquisition_score(AcquisitionKind::ProbabilityOfImprovement, 2.0, 1.0, 0.0, p);
  const double better =
      acquisition_score(AcquisitionKind::ProbabilityOfImprovement, -2.0, 1.0, 0.0, p);
  EXPECT_GT(better, 0.95);
  EXPECT_LT(worse, 0.05);
  EXPECT_GE(worse, 0.0);
  EXPECT_LE(better, 1.0);
}

TEST(ProbabilityOfImprovement, DeterministicLimit) {
  AcquisitionParams p;
  p.xi = 0.0;
  EXPECT_DOUBLE_EQ(
      acquisition_score(AcquisitionKind::ProbabilityOfImprovement, 1.0, 0.0, 2.0, p), 1.0);
  EXPECT_DOUBLE_EQ(
      acquisition_score(AcquisitionKind::ProbabilityOfImprovement, 3.0, 0.0, 2.0, p), 0.0);
}

TEST(LowerConfidenceBound, PrefersLowMeanAndHighVariance) {
  AcquisitionParams p;
  p.beta = 2.0;
  const double a = acquisition_score(AcquisitionKind::LowerConfidenceBound, 1.0, 0.5, 0.0, p);
  const double b = acquisition_score(AcquisitionKind::LowerConfidenceBound, 0.5, 0.5, 0.0, p);
  EXPECT_GT(b, a);  // lower mean preferred
  const double c = acquisition_score(AcquisitionKind::LowerConfidenceBound, 1.0, 1.0, 0.0, p);
  EXPECT_GT(c, a);  // higher variance preferred
}

TEST(Acquisition, Names) {
  EXPECT_STREQ(to_string(AcquisitionKind::ExpectedImprovement), "ei");
  EXPECT_STREQ(to_string(AcquisitionKind::ProbabilityOfImprovement), "pi");
  EXPECT_STREQ(to_string(AcquisitionKind::LowerConfidenceBound), "lcb");
}

class MaximizerFixture : public ::testing::Test {
 protected:
  MaximizerFixture() {
    // GP over a 1-d bowl with minimum near x = 0.3.
    linalg::Matrix x(9, 1);
    std::vector<double> y(9);
    for (std::size_t i = 0; i < 9; ++i) {
      x(i, 0) = static_cast<double>(i) / 8.0;
      y[i] = (x(i, 0) - 0.3) * (x(i, 0) - 0.3);
    }
    gp_.set_hyperparams(GpHyperparams::isotropic(1, 0.2, 1.0, 1e-6));
    gp_.fit(x, y);
  }

  GaussianProcess gp_;
};

TEST_F(MaximizerFixture, ChoosesPromisingRegion) {
  tunekit::Rng rng(1);
  AcquisitionMaximizerOptions opt;
  opt.n_candidates = 256;
  const auto u = maximize_acquisition(gp_, AcquisitionKind::LowerConfidenceBound, {}, 0.0,
                                      {0.3}, rng, opt, nullptr);
  ASSERT_EQ(u.size(), 1u);
  // LCB at beta=2 should stay reasonably near the basin.
  EXPECT_NEAR(u[0], 0.3, 0.35);
}

TEST_F(MaximizerFixture, RespectsFeasibilityFilter) {
  tunekit::Rng rng(2);
  AcquisitionMaximizerOptions opt;
  opt.n_candidates = 256;
  const auto accept = [](const std::vector<double>& u) { return u[0] >= 0.6; };
  const auto u = maximize_acquisition(gp_, AcquisitionKind::ExpectedImprovement, {}, 0.0,
                                      {0.3}, rng, opt, accept);
  EXPECT_GE(u[0], 0.6);
}

TEST_F(MaximizerFixture, FallsBackWhenFilterVeryTight) {
  tunekit::Rng rng(3);
  AcquisitionMaximizerOptions opt;
  opt.n_candidates = 16;  // likely no candidate passes
  opt.refine_iters = 0;
  const auto accept = [](const std::vector<double>& u) {
    return u[0] >= 0.998;  // sliver of feasibility
  };
  const auto u = maximize_acquisition(gp_, AcquisitionKind::ExpectedImprovement, {}, 0.0,
                                      {}, rng, opt, accept);
  EXPECT_GE(u[0], 0.998);
}

TEST_F(MaximizerFixture, UnfittedGpThrows) {
  GaussianProcess unfitted;
  tunekit::Rng rng(4);
  EXPECT_THROW(maximize_acquisition(unfitted, AcquisitionKind::ExpectedImprovement, {},
                                    0.0, {}, rng, {}, nullptr),
               std::runtime_error);
}

/// The maximizer as it was before the pool was scored as one block: one
/// predict() per accepted candidate, interleaved with the draws. Kept as the
/// reference maximize_acquisition must reproduce bit for bit.
std::vector<double> per_candidate_maximize(
    const GaussianProcess& gp, AcquisitionKind kind, const AcquisitionParams& params,
    double best_value, const std::vector<double>& incumbent_unit, tunekit::Rng& rng,
    const AcquisitionMaximizerOptions& options, const UnitFilter& accept) {
  const std::size_t d = gp.dim();
  auto score_at = [&](const std::vector<double>& u) {
    const auto pred = gp.predict(u);
    return acquisition_score(kind, pred.mean, pred.stddev(), best_value, params);
  };
  std::vector<double> best_point;
  double best_score = -std::numeric_limits<double>::infinity();
  const std::size_t n_local =
      incumbent_unit.empty()
          ? 0
          : static_cast<std::size_t>(options.local_fraction *
                                     static_cast<double>(options.n_candidates));
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
    const double s = score_at(candidate);
    if (s > best_score) {
      best_score = s;
      best_point = candidate;
    }
  }
  if (best_point.empty()) {
    for (std::size_t tries = 0; tries < 50000; ++tries) {
      for (std::size_t k = 0; k < d; ++k) candidate[k] = rng.uniform();
      if (!accept || accept(candidate)) return candidate;
    }
    throw std::runtime_error("per_candidate_maximize: no accepted candidate");
  }
  if (options.refine_iters > 0) {
    NelderMeadOptions nm;
    nm.max_iters = options.refine_iters;
    nm.initial_step = 0.05;
    nm.lower.assign(d, 0.0);
    nm.upper.assign(d, 1.0);
    const auto res = nelder_mead([&](const std::vector<double>& u) { return -score_at(u); },
                                 best_point, nm);
    if (-res.value > best_score && (!accept || accept(res.x))) best_point = res.x;
  }
  return best_point;
}

TEST(MaximizeAcquisition, MatchesPerCandidateReference) {
  constexpr std::size_t d = 10;
  constexpr std::size_t n = 40;
  tunekit::Rng data_rng(31);
  linalg::Matrix x(n, d);
  std::vector<double> y(n);
  std::size_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      x(i, k) = data_rng.uniform();
      acc += (x(i, k) - 0.3) * (x(i, k) - 0.3) * static_cast<double>(k + 1);
    }
    y[i] = acc;
    if (y[i] < y[best]) best = i;
  }
  GaussianProcess gp(KernelKind::Matern52);
  GpHyperparams hp = GpHyperparams::isotropic(d, 0.6, 1.2, 1e-5);
  hp.lengthscales[3] = 0.25;
  gp.set_hyperparams(hp);
  gp.fit(x, y);

  const UnitFilter half = [](const std::vector<double>& u) { return u[0] + u[1] < 1.0; };
  std::uint64_t seed = 100;
  for (AcquisitionKind kind :
       {AcquisitionKind::ExpectedImprovement, AcquisitionKind::ProbabilityOfImprovement,
        AcquisitionKind::LowerConfidenceBound}) {
    for (const UnitFilter& accept : {UnitFilter{}, half}) {
      for (std::size_t candidates : {1u, 33u, 512u}) {
        for (std::size_t refine : {0u, 40u}) {
          AcquisitionMaximizerOptions opt;
          opt.n_candidates = candidates;
          opt.refine_iters = refine;
          tunekit::Rng expected_rng(++seed);
          tunekit::Rng rng(seed);
          const auto expected = per_candidate_maximize(gp, kind, {}, y[best], x.row(best),
                                                       expected_rng, opt, accept);
          const auto chosen =
              maximize_acquisition(gp, kind, {}, y[best], x.row(best), rng, opt, accept);
          const std::string where = std::string(to_string(kind)) +
                                    (accept ? " filtered" : " unfiltered") +
                                    " n_candidates=" + std::to_string(candidates) +
                                    " refine=" + std::to_string(refine);
          ASSERT_EQ(chosen.size(), d) << where;
          for (std::size_t k = 0; k < d; ++k) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(chosen[k]),
                      std::bit_cast<std::uint64_t>(expected[k]))
                << where << " coordinate " << k;
          }
          EXPECT_TRUE(rng.engine() == expected_rng.engine()) << where;
          EXPECT_EQ(rng.uniform(), expected_rng.uniform()) << where;
        }
      }
    }
  }
}

/// N Latin-hypercube observations of the 10-dim Group3+Group4 subspace of
/// synthetic Case 5 (the merged search the methodology runs there), in unit
/// coordinates.
struct PoolProblem {
  linalg::Matrix x;
  std::vector<double> y;
  std::size_t best = 0;
};

PoolProblem case5_problem(std::size_t n, std::uint64_t seed) {
  const auto app = core::make_builtin_app("synth:case5", 42).app;
  core::RegionSumObjective total(*app, {});
  std::vector<std::size_t> params;
  for (const auto& r : app->routines()) {
    if (r.name == "Group3" || r.name == "Group4") {
      params.insert(params.end(), r.params.begin(), r.params.end());
    }
  }
  search::SubspaceObjective sub(total, app->space(), params, app->baseline());
  tunekit::Rng rng(seed);
  const auto configs = search::sample_valid_configs(sub.space(), n, rng, true);
  PoolProblem p{linalg::Matrix(n, sub.space().size()), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = sub.space().encode_unit(configs[i]);
    std::copy(u.begin(), u.end(), p.x.row_ptr(i));
    p.y[i] = sub.evaluate(configs[i]);
    if (p.y[i] < p.y[p.best]) p.best = i;
  }
  return p;
}

/// Fits with the hyperparameter search, as a session's searching ask does.
void fit(GaussianProcess& gp, const PoolProblem& p) {
  tunekit::Rng rng(5);
  gp.fit_with_hyperopt(p.x, p.y, rng);
}

/// 512 candidates as maximize_acquisition draws them: 128 normal
/// perturbations of the incumbent, then 384 uniform points.
linalg::Matrix maximizer_pool(const std::vector<double>& incumbent, std::uint64_t seed) {
  const std::size_t d = incumbent.size();
  tunekit::Rng rng(seed);
  linalg::Matrix pool(512, d);
  for (std::size_t c = 0; c < pool.rows(); ++c) {
    for (std::size_t k = 0; k < d; ++k) {
      pool(c, k) = c < 128 ? std::clamp(incumbent[k] + rng.normal(0.0, 0.08), 0.0, 1.0)
                           : rng.uniform();
    }
  }
  return pool;
}

/// Checks best_of_pool against one predict() per row in row order, the
/// first strictly best score winning: the same row and the same score bits.
PoolPick expect_per_row_pick(const GaussianProcess& gp, const linalg::Matrix& pool,
                             AcquisitionKind kind, const AcquisitionParams& params,
                             double best_value) {
  std::optional<std::size_t> expected_row;
  double expected = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < pool.rows(); ++c) {
    const auto pred = gp.predict(pool.row(c));
    const double s = acquisition_score(kind, pred.mean, pred.stddev(), best_value, params);
    if (s > expected) {
      expected = s;
      expected_row = c;
    }
  }
  const PoolPick pick = best_of_pool(gp, pool, kind, params, best_value);
  EXPECT_EQ(pick.row, expected_row) << to_string(kind);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(pick.score), std::bit_cast<std::uint64_t>(expected))
      << to_string(kind) << " score " << pick.score << " vs " << expected;
  EXPECT_LE(pick.variance_solves, pool.rows());
  return pick;
}

TEST(BestOfPool, PrunesMostVarianceSolvesOfAMaximizerPool) {
  const PoolProblem p = case5_problem(110, 41);
  GaussianProcess gp;
  fit(gp, p);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto pool = maximizer_pool(p.x.row(p.best), seed);
    const PoolPick pick =
        expect_per_row_pick(gp, pool, AcquisitionKind::ExpectedImprovement, {}, p.y[p.best]);
    EXPECT_LE(pick.variance_solves, 128u) << "seed " << seed;
    EXPECT_GT(pick.variance_solves, 0u) << "seed " << seed;
  }
}

TEST(BestOfPool, TiesGoToTheFirstRowInDrawOrder) {
  const PoolProblem p = case5_problem(110, 42);
  GaussianProcess gp;
  fit(gp, p);
  const auto drawn = maximizer_pool(p.x.row(p.best), 7);
  // Every candidate twice in a row, and the first candidate once more at
  // the end: each score is tied, and the earlier copy must win.
  linalg::Matrix pool(2 * drawn.rows() + 1, drawn.cols());
  for (std::size_t r = 0; r < pool.rows(); ++r) {
    const std::size_t c = r < 2 * drawn.rows() ? r / 2 : 0;
    std::copy(drawn.row_ptr(c), drawn.row_ptr(c) + drawn.cols(), pool.row_ptr(r));
  }
  for (AcquisitionKind kind :
       {AcquisitionKind::ExpectedImprovement, AcquisitionKind::ProbabilityOfImprovement,
        AcquisitionKind::LowerConfidenceBound}) {
    const PoolPick pick = expect_per_row_pick(gp, pool, kind, {}, p.y[p.best]);
    ASSERT_TRUE(pick.row.has_value());
    EXPECT_EQ(*pick.row % 2, 0u) << to_string(kind);
  }
}

TEST(BestOfPool, ScoresEveryRowWhenEiIsZeroEverywhere) {
  const PoolProblem p = case5_problem(110, 43);
  GaussianProcess gp;
  fit(gp, p);
  const auto pool = maximizer_pool(p.x.row(p.best), 8);
  // No candidate can improve on a best value this far below the data: EI
  // underflows to 0 at every sd, its bound included, so every bound ties
  // the best exact score and nothing may be pruned.
  const PoolPick pick =
      expect_per_row_pick(gp, pool, AcquisitionKind::ExpectedImprovement, {}, -1e6);
  EXPECT_EQ(pick.row, std::optional<std::size_t>(0));
  EXPECT_EQ(pick.score, 0.0);
  EXPECT_EQ(pick.variance_solves, pool.rows());
}

TEST(BestOfPool, PiWithCandidatesOnBothSidesOfTheTarget) {
  const PoolProblem p = case5_problem(110, 44);
  GaussianProcess gp;
  fit(gp, p);
  // The training rows first, where the sd is smallest, then a maximizer
  // pool. The target best - xi is the median training value: half the
  // training rows sit below it with PI near 1 at a small improvement, while
  // wide-sd candidates with larger improvements score lower.
  const auto drawn = maximizer_pool(p.x.row(p.best), 9);
  linalg::Matrix pool(p.x.rows() + drawn.rows(), p.x.cols());
  std::copy(p.x.data(), p.x.data() + p.x.rows() * p.x.cols(), pool.data());
  std::copy(drawn.data(), drawn.data() + drawn.rows() * drawn.cols(),
            pool.row_ptr(p.x.rows()));
  std::vector<double> sorted = p.y;
  std::sort(sorted.begin(), sorted.end());
  AcquisitionParams params;
  params.xi = 0.05;
  const double best_value = sorted[sorted.size() / 2] + params.xi;
  std::size_t below = 0;
  for (std::size_t c = 0; c < pool.rows(); ++c) {
    if (best_value - gp.predict(pool.row(c)).mean - params.xi > 0.0) ++below;
  }
  ASSERT_GT(below, 0u);
  ASSERT_LT(below, pool.rows());
  expect_per_row_pick(gp, pool, AcquisitionKind::ProbabilityOfImprovement, params, best_value);
}

TEST(BestOfPool, LcbWithNegativeScores) {
  PoolProblem p = case5_problem(110, 45);
  for (double& v : p.y) v += 1000.0;  // every LCB score near -1000
  GaussianProcess gp;
  fit(gp, p);
  const auto pool = maximizer_pool(p.x.row(p.best), 10);
  for (double beta : {2.0, 0.5, -2.0}) {
    AcquisitionParams params;
    params.beta = beta;
    const PoolPick pick = expect_per_row_pick(gp, pool, AcquisitionKind::LowerConfidenceBound,
                                              params, p.y[p.best]);
    EXPECT_LT(pick.score, 0.0) << "beta " << beta;
  }
}

TEST(BestOfPool, LcbWithNegativeBetaWinsInALaterRound) {
  // beta < 0 penalizes the sd, so a row's bound is its score at sd 0: -mean.
  // Forty rows with a lower mean than training row w but a wider sd (so a
  // lower score) fill the first round; w, visited after them, must win.
  const PoolProblem p = case5_problem(110, 48);
  GaussianProcess gp;
  fit(gp, p);
  AcquisitionParams params;
  params.beta = -2.0;
  constexpr auto kind = AcquisitionKind::LowerConfidenceBound;
  std::vector<std::size_t> by_value(p.y.size());
  std::iota(by_value.begin(), by_value.end(), std::size_t{0});
  std::sort(by_value.begin(), by_value.end(),
            [&](std::size_t a, std::size_t b) { return p.y[a] < p.y[b]; });
  const std::size_t w = by_value[10];
  const auto at_w = gp.predict(p.x.row(w));
  const double w_score = acquisition_score(kind, at_w.mean, at_w.stddev(), 0.0, params);
  const auto drawn = maximizer_pool(p.x.row(p.best), 12);
  std::vector<std::size_t> wide;
  for (std::size_t c = 0; c < drawn.rows(); ++c) {
    const auto pred = gp.predict(drawn.row(c));
    if (pred.mean < at_w.mean &&
        acquisition_score(kind, pred.mean, pred.stddev(), 0.0, params) < w_score) {
      wide.push_back(c);
    }
  }
  ASSERT_FALSE(wide.empty());
  linalg::Matrix pool(41, drawn.cols());
  for (std::size_t r = 0; r < 40; ++r) {
    const std::size_t c = wide[r % wide.size()];
    std::copy(drawn.row_ptr(c), drawn.row_ptr(c) + drawn.cols(), pool.row_ptr(r));
  }
  std::copy(p.x.row_ptr(w), p.x.row_ptr(w) + p.x.cols(), pool.row_ptr(40));
  const PoolPick pick = expect_per_row_pick(gp, pool, kind, params, p.y[p.best]);
  EXPECT_EQ(pick.row, std::optional<std::size_t>(40));
  EXPECT_EQ(pick.variance_solves, pool.rows());
}

TEST(BestOfPool, NanPriorMeanRowsNeverWin) {
  const PoolProblem p = case5_problem(110, 46);
  // Finite on the training rows while fitting; afterwards NaN wherever
  // u_0 > 0.6, so about a third of the pool predicts a NaN mean (a NaN
  // bound and score).
  bool fitted = false;
  GaussianProcess gp;
  gp.set_prior_mean([&fitted](const std::vector<double>& u) {
    return fitted && u[0] > 0.6 ? std::numeric_limits<double>::quiet_NaN() : 2.0 * u[1];
  });
  fit(gp, p);
  fitted = true;
  const auto pool = maximizer_pool(p.x.row(p.best), 11);
  std::size_t nan_rows = 0;
  for (std::size_t c = 0; c < pool.rows(); ++c) nan_rows += pool(c, 0) > 0.6 ? 1 : 0;
  ASSERT_GT(nan_rows, 100u);
  for (AcquisitionKind kind :
       {AcquisitionKind::ExpectedImprovement, AcquisitionKind::ProbabilityOfImprovement,
        AcquisitionKind::LowerConfidenceBound}) {
    const PoolPick pick = expect_per_row_pick(gp, pool, kind, {}, p.y[p.best]);
    ASSERT_TRUE(pick.row.has_value()) << to_string(kind);
    EXPECT_LE(pool(*pick.row, 0), 0.6) << to_string(kind);
    EXPECT_GE(pick.variance_solves, nan_rows) << to_string(kind);
  }
}

TEST(BestOfPool, EmptyPoolHasNoWinner) {
  const PoolProblem p = case5_problem(20, 47);
  GaussianProcess gp;
  fit(gp, p);
  const PoolPick pick = best_of_pool(gp, linalg::Matrix(0, 10),
                                     AcquisitionKind::ExpectedImprovement, {}, p.y[p.best]);
  EXPECT_FALSE(pick.row.has_value());
  EXPECT_EQ(pick.variance_solves, 0u);
}

}  // namespace
}  // namespace tunekit::bo
