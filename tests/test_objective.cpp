#include "search/objective.hpp"

#include <gtest/gtest.h>

namespace tunekit::search {
namespace {

TEST(FunctionObjective, EvaluatesAndFlagsThreadSafety) {
  FunctionObjective f([](const Config& c) { return c[0] * 2.0; });
  EXPECT_DOUBLE_EQ(f.evaluate({3.0}), 6.0);
  EXPECT_TRUE(f.thread_safe());
  FunctionObjective g([](const Config&) { return 0.0; }, /*thread_safe=*/false);
  EXPECT_FALSE(g.thread_safe());
}

TEST(RegionTimes, RegionOrTotal) {
  RegionTimes t;
  t.total = 10.0;
  t.regions["a"] = 3.0;
  EXPECT_DOUBLE_EQ(t.region_or_total("a"), 3.0);
  EXPECT_DOUBLE_EQ(t.region_or_total("total"), 10.0);
  EXPECT_DOUBLE_EQ(t.region_or_total(""), 10.0);
  EXPECT_DOUBLE_EQ(t.region_or_total("missing"), 10.0);
}

class SubspaceFixture : public ::testing::Test {
 protected:
  SubspaceFixture() {
    space_.add(ParamSpec::real("x", 0.0, 10.0, 5.0));
    space_.add(ParamSpec::real("y", 0.0, 10.0, 5.0));
    space_.add(ParamSpec::real("z", 0.0, 10.0, 5.0));
    space_.add_constraint("sum_le_20",
                          [](const Config& c) { return c[0] + c[1] + c[2] <= 20.0; });
  }

  SearchSpace space_;
  FunctionObjective inner_{[](const Config& c) { return c[0] + 10.0 * c[1] + 100.0 * c[2]; }};
};

TEST_F(SubspaceFixture, EmbedsIntoBase) {
  SubspaceObjective sub(inner_, space_, {2, 0}, {1.0, 2.0, 3.0});
  EXPECT_EQ(sub.space().size(), 2u);
  EXPECT_EQ(sub.space().param(0).name(), "z");
  const Config full = sub.embed({9.0, 4.0});
  EXPECT_EQ(full, (Config{4.0, 2.0, 9.0}));
  // Evaluate: x=4, y=2 (frozen), z=9 -> 4 + 20 + 900
  EXPECT_DOUBLE_EQ(sub.evaluate({9.0, 4.0}), 924.0);
}

TEST_F(SubspaceFixture, InheritsParentConstraint) {
  SubspaceObjective sub(inner_, space_, {0}, {0.0, 9.0, 9.0});
  // x can be at most 2 before sum exceeds 20.
  EXPECT_TRUE(sub.space().is_valid({2.0}));
  EXPECT_FALSE(sub.space().is_valid({3.0}));
}

TEST_F(SubspaceFixture, SetBaseUpdatesFrozenCoords) {
  SubspaceObjective sub(inner_, space_, {0}, {0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(sub.evaluate({1.0}), 1.0);
  sub.set_base({0.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(sub.evaluate({1.0}), 111.0);
  EXPECT_THROW(sub.set_base({0.0}), std::invalid_argument);
}

TEST_F(SubspaceFixture, ValidatesConstruction) {
  EXPECT_THROW(SubspaceObjective(inner_, space_, {5}, space_.defaults()),
               std::out_of_range);
  EXPECT_THROW(SubspaceObjective(inner_, space_, {0}, {1.0}), std::invalid_argument);
}

TEST_F(SubspaceFixture, EmbedArityChecked) {
  SubspaceObjective sub(inner_, space_, {0, 1}, space_.defaults());
  EXPECT_THROW(sub.embed({1.0}), std::invalid_argument);
}

class RegionStub final : public RegionObjective {
 public:
  RegionTimes evaluate_regions(const Config& c) override {
    RegionTimes t;
    t.regions["r1"] = c[0];
    t.regions["r2"] = 2.0 * c[0];
    t.total = 3.0 * c[0];
    return t;
  }
};

TEST(RegionObjective, ScalarEvaluateUsesTotal) {
  RegionStub stub;
  EXPECT_DOUBLE_EQ(stub.evaluate({2.0}), 6.0);
}

}  // namespace
}  // namespace tunekit::search
