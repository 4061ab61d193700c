#include "bo/bayes_opt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>

#include "obs/telemetry.hpp"
#include "search/random_search.hpp"
#include "stats/descriptive.hpp"

namespace tunekit::bo {
namespace {

using search::Config;
using search::FunctionObjective;
using search::ParamSpec;
using search::SearchSpace;

SearchSpace bowl_space(std::size_t dims = 2) {
  SearchSpace s;
  for (std::size_t i = 0; i < dims; ++i) {
    s.add(ParamSpec::real(std::string("x").append(std::to_string(i)), -5.0, 5.0, 0.0));
  }
  return s;
}

FunctionObjective bowl() {
  return FunctionObjective([](const Config& c) {
    double acc = 0.0;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double d = c[i] - 1.0;
      acc += d * d;
    }
    return acc;
  });
}

TEST(BayesOpt, ConvergesOnBowl) {
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 40;
  opt.seed = 1;
  const auto result = BayesOpt(opt).run(obj, bowl_space());
  EXPECT_EQ(result.evaluations, 40u);
  EXPECT_EQ(result.method, "bo");
  EXPECT_LT(result.best_value, 0.5);
}

TEST(BayesOpt, BeatsRandomSearchAtEqualBudget) {
  // Averaged over seeds to be robust; BO should win on a smooth 3-d bowl.
  double bo_total = 0.0, rs_total = 0.0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto obj = bowl();
    BoOptions bopt;
    bopt.max_evals = 35;
    bopt.seed = seed;
    bo_total += BayesOpt(bopt).run(obj, bowl_space(3)).best_value;

    search::RandomSearchOptions ropt;
    ropt.max_evals = 35;
    ropt.seed = seed;
    rs_total += search::RandomSearch(ropt).run(obj, bowl_space(3)).best_value;
  }
  EXPECT_LT(bo_total, rs_total);
}

TEST(BayesOpt, DeterministicPerSeed) {
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 20;
  opt.seed = 77;
  const auto r1 = BayesOpt(opt).run(obj, bowl_space());
  const auto r2 = BayesOpt(opt).run(obj, bowl_space());
  EXPECT_EQ(r1.values, r2.values);
  EXPECT_EQ(r1.best_config, r2.best_config);
}

TEST(BayesOpt, RespectsConstraints) {
  SearchSpace space = bowl_space();
  space.add_constraint("x0_negative", [](const Config& c) { return c[0] <= 0.0; });
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 25;
  opt.seed = 5;
  search::EvalDb db;
  const auto result = BayesOpt(opt).run(obj, space, db);
  for (const auto& e : db.all()) {
    EXPECT_LE(e.config[0], 0.0);
  }
  EXPECT_LE(result.best_config[0], 0.0);
}

TEST(BayesOpt, HandlesDiscreteSpaces) {
  SearchSpace space;
  space.add(ParamSpec::ordinal("a", {1, 2, 4, 8, 16}, 1));
  space.add(ParamSpec::integer("b", 0, 9, 0));
  FunctionObjective obj([](const Config& c) {
    return std::abs(c[0] - 8.0) + std::abs(c[1] - 3.0);
  });
  BoOptions opt;
  opt.max_evals = 30;
  opt.seed = 2;
  const auto result = BayesOpt(opt).run(obj, space);
  EXPECT_LE(result.best_value, 4.0);  // found a decent cell despite duplicates
}

TEST(BayesOpt, TrajectoryMonotone) {
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 25;
  const auto result = BayesOpt(opt).run(obj, bowl_space());
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
}

TEST(BayesOpt, TimeoutValueClampsSurrogateTargets) {
  // Objective with a huge spike; timeout clamps what the GP sees but the
  // recorded values stay raw.
  SearchSpace space;
  space.add(ParamSpec::real("x", 0.0, 1.0, 0.5));
  FunctionObjective obj([](const Config& c) {
    return c[0] < 0.1 ? 1e9 : (c[0] - 0.6) * (c[0] - 0.6);
  });
  BoOptions opt;
  opt.max_evals = 20;
  opt.seed = 4;
  opt.timeout_value = 10.0;
  const auto result = BayesOpt(opt).run(obj, space);
  EXPECT_LT(result.best_value, 0.3);
}

TEST(BayesOpt, WarmStartEvaluatedFirst) {
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 15;
  opt.seed = 8;
  opt.warm_start = {{1.0, 1.0}, {2.0, 2.0}};
  search::EvalDb db;
  const auto result = BayesOpt(opt).run(obj, bowl_space(), db);
  const auto evals = db.all();
  ASSERT_GE(evals.size(), 2u);
  EXPECT_EQ(evals[0].config, (Config{1.0, 1.0}));
  EXPECT_EQ(evals[1].config, (Config{2.0, 2.0}));
  // Warm start at the optimum: the best value is immediately 0.
  EXPECT_DOUBLE_EQ(result.trajectory[0], 0.0);
}

TEST(BayesOpt, WarmStartSkipsInvalidAndDuplicates) {
  SearchSpace space = bowl_space();
  space.add_constraint("x0_neg", [](const Config& c) { return c[0] <= 0.0; });
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 10;
  opt.seed = 8;
  opt.warm_start = {{3.0, 0.0},   // invalid: x0 > 0
                    {-1.0, 0.0},  // fine
                    {-1.0, 0.0}}; // duplicate
  search::EvalDb db;
  BayesOpt(opt).run(obj, space, db);
  const auto evals = db.all();
  EXPECT_EQ(evals[0].config, (Config{-1.0, 0.0}));
  // Only one warm-start evaluation made it in.
  std::size_t warm_count = 0;
  for (const auto& e : evals) {
    if (e.config == Config{-1.0, 0.0}) ++warm_count;
  }
  EXPECT_EQ(warm_count, 1u);
}

TEST(BayesOpt, InitialDesignVariantsAllWork) {
  for (auto design : {InitialDesign::LatinHypercube, InitialDesign::Sobol,
                      InitialDesign::UniformRandom}) {
    auto obj = bowl();
    BoOptions opt;
    opt.max_evals = 15;
    opt.n_init = 6;
    opt.seed = 13;
    opt.init_design = design;
    const auto result = BayesOpt(opt).run(obj, bowl_space());
    EXPECT_EQ(result.evaluations, 15u);
    EXPECT_LT(result.best_value, 30.0);
  }
}

TEST(BayesOpt, SobolInitDiffersFromLhs) {
  auto obj = bowl();
  BoOptions lhs;
  lhs.max_evals = 6;
  lhs.n_init = 6;
  lhs.seed = 14;
  BoOptions sobol = lhs;
  sobol.init_design = InitialDesign::Sobol;
  search::EvalDb db_lhs, db_sobol;
  BayesOpt(lhs).run(obj, bowl_space(), db_lhs);
  BayesOpt(sobol).run(obj, bowl_space(), db_sobol);
  EXPECT_NE(db_lhs.all()[0].config, db_sobol.all()[0].config);
}

TEST(BayesOpt, SurvivesCrashingObjective) {
  // The objective throws on part of the space (a crashing application);
  // the search records failures and still finds the basin elsewhere. A
  // quarter of the space crashes and the budget is 30, so single runs land
  // on either side of 1.0: the basin claim is the median over 20 seeds.
  SearchSpace space = bowl_space();
  FunctionObjective obj([](const Config& c) -> double {
    if (c[0] > 2.5) throw std::runtime_error("segfault in kernel");
    const double d0 = c[0] - 1.0, d1 = c[1] - 1.0;
    return d0 * d0 + d1 * d1;
  });
  std::vector<double> bests;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    BoOptions opt;
    opt.max_evals = 30;
    opt.seed = seed;
    search::EvalDb db;
    const auto result = BayesOpt(opt).run(obj, space, db);
    EXPECT_EQ(db.size(), 30u) << "seed " << seed;  // failures count toward the budget
    EXPECT_LE(result.best_config[0], 2.5) << "seed " << seed;
    // At least one crash was recorded as NaN (a quarter of the space throws).
    std::size_t failures = 0;
    for (const auto& e : db.all()) {
      if (std::isnan(e.value)) ++failures;
    }
    EXPECT_GE(failures, 1u) << "seed " << seed;
    bests.push_back(result.best_value);
  }
  EXPECT_LT(stats::median(bests), 1.0);
}

TEST(BayesOpt, FailurePenaltySteersAwayFromCrashes) {
  SearchSpace space = bowl_space();
  FunctionObjective obj([](const Config& c) -> double {
    if (c[0] > 0.0) throw std::runtime_error("crash");
    return (c[0] + 2.0) * (c[0] + 2.0) + c[1] * c[1];
  });
  BoOptions opt;
  opt.max_evals = 40;
  opt.seed = 7;
  opt.failure_penalty = 100.0;  // crashes look terrible to the surrogate
  search::EvalDb db;
  const auto result = BayesOpt(opt).run(obj, space, db);
  EXPECT_LT(result.best_config[0], 0.0);
  EXPECT_LT(result.best_value, 5.0);
}

TEST(BayesOpt, AllFailuresStillTerminates) {
  SearchSpace space = bowl_space();
  FunctionObjective obj([](const Config&) -> double {
    throw std::runtime_error("always crashes");
  });
  BoOptions opt;
  opt.max_evals = 12;
  opt.seed = 8;
  search::EvalDb db;
  const auto result = BayesOpt(opt).run(obj, space, db);
  EXPECT_EQ(db.size(), 12u);
  EXPECT_FALSE(result.found());
}

TEST(BayesOpt, InitialDesignRespectsBudget) {
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 3;
  opt.n_init = 10;  // larger than the budget
  const auto result = BayesOpt(opt).run(obj, bowl_space());
  EXPECT_EQ(result.evaluations, 3u);
}

TEST(BayesOpt, TracesFitArgmaxAndEvalUnderEveryIteration) {
  obs::Telemetry telemetry;
  telemetry.enable();
  auto obj = bowl();
  BoOptions opt;
  opt.max_evals = 14;
  opt.n_init = 5;
  opt.seed = 3;
  opt.telemetry = &telemetry;
  BayesOpt(opt).run(obj, bowl_space());

  std::vector<obs::SpanId> iterations;
  std::map<obs::SpanId, std::multiset<std::string>> children;
  for (const auto& span : telemetry.spans()) {
    if (span.name == "bo.iteration") iterations.push_back(span.id);
    children[span.parent].insert(span.name);
  }
  ASSERT_EQ(iterations.size(), opt.max_evals - opt.n_init);
  const std::multiset<std::string> decision{"gp.fit", "acq.argmax", "eval"};
  for (obs::SpanId id : iterations) EXPECT_EQ(children[id], decision);
}

}  // namespace
}  // namespace tunekit::bo
