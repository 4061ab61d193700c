#include "bo/acquisition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "bo/nelder_mead.hpp"

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

}  // namespace
}  // namespace tunekit::bo
