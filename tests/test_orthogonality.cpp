#include "stats/orthogonality.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace tunekit::stats {
namespace {

using search::Config;
using search::FunctionObjective;
using search::ParamSpec;
using search::SearchSpace;

SearchSpace cube(std::size_t dims) {
  SearchSpace s;
  for (std::size_t i = 0; i < dims; ++i) {
    s.add(ParamSpec::real(std::string("p").append(std::to_string(i)), 0.5, 10.0, 2.0));
  }
  return s;
}

TEST(Orthogonality, AdditiveFunctionShowsNoInteractions) {
  // f = p0^2 + p1 + p2 : fully additive.
  FunctionObjective f([](const Config& c) { return c[0] * c[0] + c[1] + c[2]; });
  const auto space = cube(3);
  Rng rng(1);
  OrthogonalityAnalyzer analyzer;
  const auto report = analyzer.analyze(f, space, {2.0, 2.0, 2.0}, rng);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      EXPECT_NEAR(report.interaction(i, j), 0.0, 1e-9);
    }
  }
  EXPECT_TRUE(report.interacting_pairs(0.01).empty());
}

TEST(Orthogonality, MultiplicativePairDetected) {
  // f = p0 * p1 + p2 : only the (0, 1) pair interacts.
  FunctionObjective f([](const Config& c) { return c[0] * c[1] + c[2]; });
  const auto space = cube(3);
  Rng rng(2);
  OrthogonalityAnalyzer analyzer;
  const auto report = analyzer.analyze(f, space, {2.0, 2.0, 2.0}, rng);
  EXPECT_GT(report.interaction(0, 1), 0.05);
  EXPECT_NEAR(report.interaction(0, 2), 0.0, 1e-9);
  EXPECT_NEAR(report.interaction(1, 2), 0.0, 1e-9);

  const auto pairs = report.interacting_pairs(0.05);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].i, 0u);
  EXPECT_EQ(pairs[0].j, 1u);
}

TEST(Orthogonality, InteractionIsSymmetric) {
  FunctionObjective f([](const Config& c) { return c[0] * c[1]; });
  const auto space = cube(2);
  Rng rng(3);
  const auto report = OrthogonalityAnalyzer().analyze(f, space, {2.0, 2.0}, rng);
  EXPECT_DOUBLE_EQ(report.interaction(0, 1), report.interaction(1, 0));
}

TEST(Orthogonality, AdditiveGroupsPartitionCorrectly) {
  // Groups {0,1} (multiplied) and {2,3} (multiplied), additive in between.
  FunctionObjective f(
      [](const Config& c) { return c[0] * c[1] + c[2] * c[3] + c[0] + c[3]; });
  const auto space = cube(4);
  Rng rng(4);
  const auto report = OrthogonalityAnalyzer().analyze(f, space, {2.0, 2.0, 2.0, 2.0}, rng);
  const auto groups = report.additive_groups(0.02);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{2, 3}));
}

TEST(Orthogonality, ObservationCountQuadraticInDims) {
  OrthogonalityOptions opt;
  opt.n_draws = 3;
  OrthogonalityAnalyzer analyzer(opt);
  // 1 + V*(D + D(D-1)/2)
  EXPECT_EQ(analyzer.predicted_observations(20), 1u + 3u * (20u + 190u));
  EXPECT_EQ(analyzer.predicted_observations(4), 1u + 3u * (4u + 6u));

  FunctionObjective f([](const Config& c) { return c[0] + c[1] + c[2] + c[3]; });
  const auto space = cube(4);
  Rng rng(5);
  const auto report = analyzer.analyze(f, space, {2.0, 2.0, 2.0, 2.0}, rng);
  EXPECT_EQ(report.observations, analyzer.predicted_observations(4));
}

TEST(Orthogonality, MuchMoreExpensiveThanSensitivity) {
  // The paper's cost argument in one assertion: for D = 20, V = 3 the
  // pairwise analysis needs ~3x more observations than a V = 10 sensitivity
  // sweep, and the gap grows quadratically.
  OrthogonalityOptions opt;
  opt.n_draws = 3;
  const std::size_t orth = OrthogonalityAnalyzer(opt).predicted_observations(20);
  const std::size_t sens = 1 + 20 * 10;  // baseline + V*D
  EXPECT_GT(orth, 3 * sens);
}

TEST(Orthogonality, SkipsInvalidPerturbations) {
  FunctionObjective f([](const Config& c) { return c[0] + c[1]; });
  SearchSpace space = cube(2);
  space.add_constraint("sum", [](const Config& c) { return c[0] + c[1] <= 6.0; });
  Rng rng(6);
  OrthogonalityAnalyzer analyzer;
  // Perturbations past the constraint are skipped, not fatal.
  EXPECT_NO_THROW(analyzer.analyze(f, space, {2.0, 2.0}, rng));
}

TEST(Orthogonality, ValidatesBaseline) {
  FunctionObjective f([](const Config& c) { return c[0]; });
  const auto space = cube(1);
  Rng rng(7);
  OrthogonalityAnalyzer analyzer;
  EXPECT_THROW(analyzer.analyze(f, space, {100.0}, rng), std::invalid_argument);

  FunctionObjective zero([](const Config&) { return 0.0; });
  EXPECT_THROW(analyzer.analyze(zero, space, {2.0}, rng), std::invalid_argument);
}

}  // namespace
}  // namespace tunekit::stats
