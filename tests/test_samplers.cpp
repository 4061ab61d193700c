#include "search/samplers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace tunekit::search {
namespace {

TEST(UniformUnit, ShapeAndRange) {
  Rng rng(1);
  const auto pts = uniform_unit(50, 4, rng);
  ASSERT_EQ(pts.size(), 50u);
  for (const auto& p : pts) {
    ASSERT_EQ(p.size(), 4u);
    for (double x : p) {
      EXPECT_GE(x, 0.0);
      EXPECT_LT(x, 1.0);
    }
  }
}

TEST(LatinHypercube, StratificationProperty) {
  // Exactly one sample must fall in each of the n strata, per dimension.
  Rng rng(2);
  const std::size_t n = 16;
  const auto pts = latin_hypercube_unit(n, 3, rng);
  for (std::size_t d = 0; d < 3; ++d) {
    std::vector<int> count(n, 0);
    for (const auto& p : pts) {
      const auto cell = std::min<std::size_t>(
          n - 1, static_cast<std::size_t>(p[d] * static_cast<double>(n)));
      ++count[cell];
    }
    for (int c : count) EXPECT_EQ(c, 1);
  }
}

TEST(LatinHypercube, DeterministicPerSeed) {
  Rng a(7), b(7);
  const auto p1 = latin_hypercube_unit(10, 2, a);
  const auto p2 = latin_hypercube_unit(10, 2, b);
  EXPECT_EQ(p1, p2);
}

TEST(SampleValidConfigs, AllValidAndExactCount) {
  SearchSpace space;
  space.add(ParamSpec::integer("a", 1, 10, 1));
  space.add(ParamSpec::integer("b", 1, 10, 1));
  space.add_constraint("sum", [](const Config& c) { return c[0] + c[1] <= 12.0; });
  Rng rng(3);
  const auto configs = sample_valid_configs(space, 40, rng);
  EXPECT_EQ(configs.size(), 40u);
  for (const auto& c : configs) EXPECT_TRUE(space.is_valid(c));
}

TEST(GridConfigs, FullFactorialOverDiscrete) {
  SearchSpace space;
  space.add(ParamSpec::ordinal("a", {1, 2, 3}, 1));
  space.add(ParamSpec::integer("b", 0, 1, 0));
  const auto grid = grid_configs(space, 2);
  EXPECT_EQ(grid.size(), 6u);
}

TEST(GridConfigs, RealsDiscretized) {
  SearchSpace space;
  space.add(ParamSpec::real("x", 0.0, 1.0, 0.0));
  const auto grid = grid_configs(space, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front()[0], 0.0);
  EXPECT_DOUBLE_EQ(grid.back()[0], 1.0);
}

TEST(GridConfigs, ConstraintsFilter) {
  SearchSpace space;
  space.add(ParamSpec::integer("a", 1, 4, 1));
  space.add(ParamSpec::integer("b", 1, 4, 1));
  space.add_constraint("a_le_b", [](const Config& c) { return c[0] <= c[1]; });
  const auto grid = grid_configs(space, 2);
  EXPECT_EQ(grid.size(), 10u);  // upper triangle incl. diagonal of 4x4
  for (const auto& c : grid) EXPECT_LE(c[0], c[1]);
}

TEST(GridConfigs, ExplosionGuard) {
  SearchSpace space;
  for (int i = 0; i < 10; ++i) {
    space.add(ParamSpec::integer(std::string("p").append(std::to_string(i)), 1, 10, 1));
  }
  EXPECT_THROW(grid_configs(space, 2, 1000), std::runtime_error);
}

TEST(GridConfigs, RealLevelsValidation) {
  SearchSpace space;
  space.add(ParamSpec::real("x", 0, 1, 0));
  EXPECT_THROW(grid_configs(space, 1), std::invalid_argument);
}

}  // namespace
}  // namespace tunekit::search
