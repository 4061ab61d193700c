#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "bo/additive_bo.hpp"
#include "bo/bayes_opt.hpp"
#include "bo/additive_gp.hpp"
#include "bo/dropout_bo.hpp"
#include "bo/rembo.hpp"
#include "search/random_search.hpp"

namespace tunekit::bo {
namespace {

using search::Config;
using search::FunctionObjective;
using search::ParamSpec;
using search::SearchSpace;

SearchSpace unit_cube(std::size_t dims) {
  SearchSpace s;
  for (std::size_t i = 0; i < dims; ++i) {
    s.add(ParamSpec::real(std::string("x").append(std::to_string(i)), 0.0, 1.0, 0.5));
  }
  return s;
}

/// Additive bowl: Σ (x_i - t_i)^2 with known per-dimension optima.
FunctionObjective additive_bowl(std::size_t dims) {
  return FunctionObjective([dims](const Config& c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < dims; ++i) {
      const double t = 0.2 + 0.05 * static_cast<double>(i % 5);
      acc += (c[i] - t) * (c[i] - t);
    }
    return acc;
  });
}

TEST(DropoutBo, ImprovesOverInitialDesign) {
  auto obj = additive_bowl(8);
  const auto space = unit_cube(8);
  DropoutBoOptions opt;
  opt.max_evals = 40;
  opt.active_dims = 3;
  opt.seed = 1;
  const auto result = DropoutBo(opt).run(obj, space);
  EXPECT_EQ(result.method, "dropout-bo");
  EXPECT_EQ(result.evaluations, 40u);
  const double init_best = result.trajectory[4];
  EXPECT_LT(result.best_value, init_best);
}

TEST(DropoutBo, FillFromBestVariantConverges) {
  auto obj = additive_bowl(10);
  const auto space = unit_cube(10);
  DropoutBoOptions opt;
  opt.max_evals = 60;
  opt.active_dims = 4;
  opt.fill_from_best = true;
  opt.seed = 2;
  const auto copy = DropoutBo(opt).run(obj, space);
  opt.fill_from_best = false;
  opt.seed = 2;
  const auto random = DropoutBo(opt).run(obj, space);
  // The copy variant should not be dramatically worse (generally better on
  // additive objectives, per Li et al.).
  EXPECT_LT(copy.best_value, random.best_value + 0.5);
}

TEST(DropoutBo, TrajectoryMonotone) {
  auto obj = additive_bowl(6);
  const auto space = unit_cube(6);
  DropoutBoOptions opt;
  opt.max_evals = 25;
  const auto result = DropoutBo(opt).run(obj, space);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
}

TEST(Rembo, ProjectionClipsToUnitCube) {
  linalg::Matrix a(3, 2);
  a(0, 0) = 10.0;  // strong coefficient forces clipping
  a(1, 1) = -10.0;
  a(2, 0) = 0.01;
  const auto x = Rembo::project(a, {1.0, 1.0});
  ASSERT_EQ(x.size(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 1.0);  // clipped high
  EXPECT_DOUBLE_EQ(x[1], 0.0);  // clipped low
  EXPECT_NEAR(x[2], 0.51, 1e-12);
}

TEST(Rembo, FindsLowDimensionalStructure) {
  // Effective dimensionality 2: objective ignores all but x0, x1.
  FunctionObjective obj([](const Config& c) {
    return (c[0] - 0.3) * (c[0] - 0.3) + (c[1] - 0.7) * (c[1] - 0.7);
  });
  const auto space = unit_cube(12);
  RemboOptions opt;
  opt.max_evals = 50;
  opt.embedding_dims = 4;
  opt.seed = 3;
  const auto result = Rembo(opt).run(obj, space);
  EXPECT_EQ(result.method, "rembo");
  EXPECT_LT(result.best_value, 0.15);
}

TEST(Rembo, DeterministicPerSeed) {
  auto obj = additive_bowl(6);
  const auto space = unit_cube(6);
  RemboOptions opt;
  opt.max_evals = 20;
  opt.seed = 9;
  const auto r1 = Rembo(opt).run(obj, space);
  const auto r2 = Rembo(opt).run(obj, space);
  EXPECT_EQ(r1.values, r2.values);
}

TEST(AdditiveGp, ValidatesGroups) {
  EXPECT_THROW(AdditiveGp(std::vector<std::vector<std::size_t>>{}),
               std::invalid_argument);
  EXPECT_THROW(AdditiveGp(std::vector<std::vector<std::size_t>>{{0}, {}}),
               std::invalid_argument);
  EXPECT_THROW(AdditiveGp(std::vector<std::vector<std::size_t>>{{0, 1}, {1}}),
               std::invalid_argument);  // overlap
  AdditiveGp ok(std::vector<std::vector<std::size_t>>{{0, 1}, {2}});
  EXPECT_EQ(ok.n_groups(), 2u);
  EXPECT_EQ(ok.dim(), 3u);
}

TEST(AdditiveGp, FitsAdditiveFunction) {
  tunekit::Rng rng(4);
  const std::size_t n = 40;
  linalg::Matrix x(n, 4);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 4; ++k) x(i, k) = rng.uniform();
    y[i] = std::sin(4.0 * x(i, 0)) + x(i, 1) * x(i, 1) + 2.0 * x(i, 2) - x(i, 3);
  }
  AdditiveGp gp(std::vector<std::vector<std::size_t>>{{0}, {1}, {2}, {3}});
  tunekit::Rng hrng(5);
  gp.fit_with_hyperopt(x, y, hrng, 2, 60);

  // Held-out accuracy.
  double sse = 0.0, sst = 0.0, mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(n);
  for (int t = 0; t < 50; ++t) {
    std::vector<double> p{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    const double truth = std::sin(4.0 * p[0]) + p[1] * p[1] + 2.0 * p[2] - p[3];
    const double pred = gp.predict(p).mean;
    sse += (pred - truth) * (pred - truth);
    sst += (truth - mean) * (truth - mean);
  }
  EXPECT_GT(1.0 - sse / sst, 0.7);
}

TEST(AdditiveGp, GroupContributionsRespondToOwnCoordsOnly) {
  tunekit::Rng rng(6);
  const std::size_t n = 30;
  linalg::Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = 3.0 * x(i, 0) + std::cos(3.0 * x(i, 1));
  }
  AdditiveGp gp(std::vector<std::vector<std::size_t>>{{0}, {1}});
  gp.fit(x, y);
  const auto a = gp.predict_group(0, {0.2, 0.5});
  const auto b = gp.predict_group(0, {0.2, 0.9});  // group-1 coord changed
  EXPECT_NEAR(a.mean, b.mean, 1e-9);
  const auto c = gp.predict_group(0, {0.8, 0.5});
  EXPECT_GT(std::abs(c.mean - a.mean), 1e-3);
}

TEST(AdditiveGp, PredictBeforeFitThrows) {
  AdditiveGp gp(std::vector<std::vector<std::size_t>>{{0}});
  EXPECT_THROW(gp.predict({0.5}), std::runtime_error);
  EXPECT_THROW(gp.predict_group(0, {0.5}), std::runtime_error);
}

TEST(AdditiveBo, OutperformsRandomOnAdditiveObjective) {
  const std::size_t dims = 10;
  const auto space = unit_cube(dims);
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < dims; i += 2) groups.push_back({i, i + 1});

  double add_total = 0.0, rnd_total = 0.0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    auto obj1 = additive_bowl(dims);
    AdditiveBoOptions opt;
    opt.max_evals = 40;
    opt.seed = seed;
    add_total += AdditiveBo(groups, opt).run(obj1, space).best_value;

    auto obj2 = additive_bowl(dims);
    search::RandomSearchOptions ropt;
    ropt.max_evals = 40;
    ropt.seed = seed;
    rnd_total += search::RandomSearch(ropt).run(obj2, space).best_value;
  }
  EXPECT_LT(add_total, rnd_total);
}

TEST(AdditiveBo, ValidatesGroups) {
  EXPECT_THROW(AdditiveBo(std::vector<std::vector<std::size_t>>{}),
               std::invalid_argument);
  auto obj = additive_bowl(2);
  const auto space = unit_cube(2);
  AdditiveBoOptions opt;
  opt.max_evals = 8;
  AdditiveBo bad(std::vector<std::vector<std::size_t>>{{0, 5}}, opt);  // index out of range for the space
  EXPECT_THROW(bad.run(obj, space), std::invalid_argument);
}

TEST(BayesOptBatch, SuggestsDistinctConfigs) {
  auto obj = additive_bowl(3);
  const auto space = unit_cube(3);
  BoOptions opt;
  opt.max_evals = 15;
  opt.seed = 11;
  search::EvalDb db;
  BayesOpt(opt).run(obj, space, db);

  const auto batch = BayesOpt(opt).suggest_batch(db, space, 4);
  ASSERT_EQ(batch.size(), 4u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(space.is_valid(batch[i]));
    for (std::size_t j = i + 1; j < batch.size(); ++j) {
      EXPECT_NE(batch[i], batch[j]);
    }
  }
}

TEST(BayesOptBatch, EmptyDbThrows) {
  const auto space = unit_cube(2);
  search::EvalDb db;
  EXPECT_THROW(BayesOpt().suggest_batch(db, space, 2), std::invalid_argument);
}

TEST(BayesOptBatch, AllFailedDbEntersAtFailurePenalty) {
  const auto space = unit_cube(3);
  search::EvalDb db;
  tunekit::Rng rng(12);
  for (int i = 0; i < 6; ++i) {
    db.record(space.sample_valid(rng), std::numeric_limits<double>::quiet_NaN());
  }
  // Failures are left out by default, which leaves nothing to fit.
  EXPECT_THROW(BayesOpt().suggest_batch(db, space, 3), std::invalid_argument);

  BoOptions opt;
  opt.failure_penalty = 100.0;
  const auto batch = BayesOpt(opt).suggest_batch(db, space, 3);
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& c : batch) EXPECT_TRUE(space.is_valid(c));
}

// --- Every strategy shares BayesOpt::run's failure policy ---------------------

using Strategy =
    std::function<search::SearchResult(search::Objective&, const SearchSpace&)>;

struct StrategyCase {
  const char* name;
  Strategy run;
};

const StrategyCase kStrategies[] = {
    {"joint",
     [](search::Objective& obj, const SearchSpace& space) {
       BoOptions opt;
       opt.max_evals = 30;
       opt.seed = 21;
       return BayesOpt(opt).run(obj, space);
     }},
    {"dropout",
     [](search::Objective& obj, const SearchSpace& space) {
       DropoutBoOptions opt;
       opt.max_evals = 30;
       opt.active_dims = 3;
       opt.seed = 21;
       return DropoutBo(opt).run(obj, space);
     }},
    {"rembo",
     [](search::Objective& obj, const SearchSpace& space) {
       RemboOptions opt;
       opt.max_evals = 30;
       opt.embedding_dims = 3;
       opt.seed = 21;
       return Rembo(opt).run(obj, space);
     }},
    {"additive",
     [](search::Objective& obj, const SearchSpace& space) {
       AdditiveBoOptions opt;
       opt.max_evals = 30;
       opt.seed = 21;
       return AdditiveBo({{0, 1}, {2, 3}, {4, 5}}, opt).run(obj, space);
     }},
};

enum class Failure { Throws, ReturnsNaN };

class StrategyFailures
    : public ::testing::TestWithParam<std::tuple<std::size_t, Failure>> {};

TEST_P(StrategyFailures, RecordsFailuresAndSpendsTheBudget) {
  const auto [index, failure] = GetParam();
  const auto space = unit_cube(6);
  std::vector<bool> failed;  // per objective call, in evaluation order
  FunctionObjective obj([&, failure = failure](const Config& c) {
    failed.push_back(c[0] > 0.6);
    if (!failed.back()) return (c[1] - 0.3) * (c[1] - 0.3) + c[0];
    if (failure == Failure::Throws) throw std::runtime_error("crash in kernel");
    return std::numeric_limits<double>::quiet_NaN();
  });
  const auto result = kStrategies[index].run(obj, space);

  EXPECT_EQ(result.evaluations, 30u);
  ASSERT_EQ(result.values.size(), 30u);
  ASSERT_EQ(failed.size(), 30u);
  for (std::size_t i = 0; i < failed.size(); ++i) {
    EXPECT_EQ(std::isnan(result.values[i]), static_cast<bool>(failed[i])) << "evaluation " << i;
  }
  ASSERT_TRUE(result.found());
  EXPECT_TRUE(std::isfinite(result.best_value));
  EXPECT_LE(result.best_config[0], 0.6);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyFailures,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kStrategies)),
                       ::testing::Values(Failure::Throws, Failure::ReturnsNaN)),
    [](const auto& info) {
      return std::string(kStrategies[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) == Failure::Throws ? "_throws" : "_nan");
    });

TEST(Rembo, InfeasibleProjectionsSpendNoBudget) {
  auto space = unit_cube(6);
  space.add_constraint("x0-low", [](const Config& c) { return c[0] <= 0.05; });
  std::size_t calls = 0;
  FunctionObjective obj([&](const Config& c) {
    ++calls;
    EXPECT_TRUE(space.is_valid(c)) << "the objective saw an invalid configuration";
    return (c[1] - 0.4) * (c[1] - 0.4);
  });
  RemboOptions opt;
  opt.max_evals = 25;
  opt.seed = 5;
  const auto result = Rembo(opt).run(obj, space);
  EXPECT_EQ(result.evaluations, 25u);
  EXPECT_EQ(calls, 25u);
  ASSERT_TRUE(result.found());
  EXPECT_TRUE(space.is_valid(result.best_config));
}

}  // namespace
}  // namespace tunekit::bo
