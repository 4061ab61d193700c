#include "bo/transfer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bo/bayes_opt.hpp"

namespace tunekit::bo {
namespace {

using search::Config;
using search::FunctionObjective;
using search::ParamSpec;
using search::SearchSpace;

SearchSpace unit_space(std::size_t dims) {
  SearchSpace s;
  for (std::size_t i = 0; i < dims; ++i) {
    s.add(ParamSpec::real(std::string("x").append(std::to_string(i)), 0.0, 1.0, 0.5));
  }
  return s;
}

/// Source and target tasks share the same basin at (0.8, 0.2); the target is
/// a shifted/scaled version of the source.
double source_fn(const Config& c) {
  const double dx = c[0] - 0.8, dy = c[1] - 0.2;
  return 10.0 * (dx * dx + dy * dy);
}
double target_fn(const Config& c) { return 1.5 * source_fn(c) + 0.3; }

TEST(TransferPrior, FitsAndPredictsSourceShape) {
  const auto space = unit_space(2);
  FunctionObjective src(source_fn);

  // Collect source evaluations with a quick BO run.
  BoOptions opt;
  opt.max_evals = 30;
  opt.seed = 1;
  search::EvalDb db;
  BayesOpt(opt).run(src, space, db);

  tunekit::Rng rng(2);
  const auto prior = TransferPrior::fit(space, db.all(), rng);
  EXPECT_EQ(prior.source_points(), 30u);

  // The prior's landscape must rank the basin below a far corner.
  const double at_basin = prior.mean_at(space.encode_unit({0.8, 0.2}));
  const double at_corner = prior.mean_at(space.encode_unit({0.1, 0.9}));
  EXPECT_LT(at_basin, at_corner);
}

TEST(TransferPrior, ScaleMultipliesPrediction) {
  const auto space = unit_space(1);
  std::vector<search::Evaluation> evals;
  for (double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    evals.push_back({{x}, 2.0 * x, 0.0});
  }
  tunekit::Rng rng(3);
  const auto p1 = TransferPrior::fit(space, evals, rng, KernelKind::Matern52, 1.0);
  tunekit::Rng rng2(3);
  const auto p2 = TransferPrior::fit(space, evals, rng2, KernelKind::Matern52, 2.0);
  const auto u = space.encode_unit({0.5});
  EXPECT_NEAR(p2.mean_at(u), 2.0 * p1.mean_at(u), 1e-9);
}

TEST(TransferPrior, EmptySourceThrows) {
  const auto space = unit_space(1);
  tunekit::Rng rng(1);
  EXPECT_THROW(TransferPrior::fit(space, {}, rng), std::invalid_argument);
}

TEST(TransferLearning, ImprovesEarlySearchOnRelatedTask) {
  const auto space = unit_space(2);

  // Source database from a generous source run.
  FunctionObjective src(source_fn);
  BoOptions src_opt;
  src_opt.max_evals = 40;
  src_opt.seed = 10;
  search::EvalDb src_db;
  BayesOpt(src_opt).run(src, space, src_db);

  double with_total = 0.0, without_total = 0.0;
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    FunctionObjective tgt(target_fn);
    // Tiny budget: the prior must help.
    BoOptions with_opt;
    with_opt.max_evals = 12;
    with_opt.n_init = 3;
    with_opt.seed = seed;
    tunekit::Rng prng(seed);
    with_opt.transfer = TransferPrior::fit(space, src_db.all(), prng);
    with_total += BayesOpt(with_opt).run(tgt, space).best_value;

    BoOptions without_opt;
    without_opt.max_evals = 12;
    without_opt.n_init = 3;
    without_opt.seed = seed;
    without_total += BayesOpt(without_opt).run(tgt, space).best_value;
  }
  EXPECT_LE(with_total, without_total * 1.1);
}

TEST(TransferPrior, UnfittedMeanThrows) {
  // Default-constructed prior is not reachable through the public API, but a
  // moved-from optional pattern is; verify fit() is the only entry point by
  // checking a valid prior works.
  const auto space = unit_space(1);
  std::vector<search::Evaluation> evals{{{0.5}, 1.0, 0.0}, {{0.7}, 2.0, 0.0}};
  tunekit::Rng rng(4);
  const auto prior = TransferPrior::fit(space, evals, rng);
  EXPECT_NO_THROW(prior.mean_at({0.5}));
}

}  // namespace
}  // namespace tunekit::bo
