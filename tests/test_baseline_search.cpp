#include <gtest/gtest.h>

#include "search/random_search.hpp"

namespace tunekit::search {
namespace {

SearchSpace bowl_space() {
  SearchSpace s;
  s.add(ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

FunctionObjective bowl() {
  return FunctionObjective([](const Config& c) {
    return (c[0] - 1.0) * (c[0] - 1.0) + (c[1] + 2.0) * (c[1] + 2.0);
  });
}

TEST(RandomSearch, FindsReasonableMinimum) {
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 300;
  opt.seed = 5;
  const auto result = RandomSearch(opt).run(obj, bowl_space());
  EXPECT_EQ(result.evaluations, 300u);
  EXPECT_EQ(result.method, "random");
  EXPECT_LT(result.best_value, 0.5);
  EXPECT_NEAR(result.best_config[0], 1.0, 1.5);
  EXPECT_NEAR(result.best_config[1], -2.0, 1.5);
}

TEST(RandomSearch, DeterministicPerSeed) {
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 50;
  opt.seed = 11;
  const auto r1 = RandomSearch(opt).run(obj, bowl_space());
  const auto r2 = RandomSearch(opt).run(obj, bowl_space());
  EXPECT_EQ(r1.best_value, r2.best_value);
  EXPECT_EQ(r1.values, r2.values);
}

TEST(RandomSearch, TrajectoryMonotone) {
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 100;
  const auto result = RandomSearch(opt).run(obj, bowl_space());
  ASSERT_EQ(result.trajectory.size(), 100u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.trajectory.back(), result.best_value);
}

TEST(RandomSearch, ParallelMatchesSequentialBest) {
  // Same seed, same configurations; threads only change evaluation order.
  auto obj = bowl();
  RandomSearchOptions seq;
  seq.max_evals = 120;
  seq.seed = 9;
  seq.n_threads = 1;
  RandomSearchOptions par = seq;
  par.n_threads = 4;
  const auto r_seq = RandomSearch(seq).run(obj, bowl_space());
  const auto r_par = RandomSearch(par).run(obj, bowl_space());
  EXPECT_DOUBLE_EQ(r_seq.best_value, r_par.best_value);
  EXPECT_EQ(r_seq.best_config, r_par.best_config);
}

TEST(RandomSearch, RespectsConstraints) {
  SearchSpace space = bowl_space();
  space.add_constraint("x_positive", [](const Config& c) { return c[0] >= 0.0; });
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 50;
  const auto result = RandomSearch(opt).run(obj, space);
  EXPECT_GE(result.best_config[0], 0.0);
}

}  // namespace
}  // namespace tunekit::search
