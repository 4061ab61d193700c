#include "stats/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace tunekit::stats {
namespace {

using search::Config;
using search::ParamSpec;
using search::RegionTimes;
using search::SearchSpace;

/// Two regions: "A" depends only on p0, "B" on p0 and p1; p2 is inert.
class TwoRegionApp final : public search::RegionObjective {
 public:
  RegionTimes evaluate_regions(const Config& c) override {
    RegionTimes t;
    t.regions["A"] = 10.0 + 2.0 * c[0];
    t.regions["B"] = 5.0 + 1.0 * c[0] + 3.0 * c[1];
    t.total = t.regions["A"] + t.regions["B"];
    return t;
  }
};

SearchSpace three_param_space() {
  SearchSpace s;
  s.add(ParamSpec::real("p0", 0.1, 100.0, 1.0));
  s.add(ParamSpec::real("p1", 0.1, 100.0, 1.0));
  s.add(ParamSpec::real("p2", 0.1, 100.0, 1.0));
  return s;
}

TEST(Sensitivity, DetectsInfluenceStructure) {
  TwoRegionApp app;
  const auto space = three_param_space();
  SensitivityOptions opt;
  opt.n_variations = 5;
  SensitivityAnalyzer analyzer(opt);
  const auto report = analyzer.analyze(app, space, {1.0, 1.0, 1.0});

  // p0 influences both regions; p1 only B; p2 nothing.
  EXPECT_GT(report.score("A", 0), 0.01);
  EXPECT_NEAR(report.score("A", 1), 0.0, 1e-12);
  EXPECT_NEAR(report.score("A", 2), 0.0, 1e-12);
  EXPECT_GT(report.score("B", 0), 0.0);
  EXPECT_GT(report.score("B", 1), report.score("B", 0));
  EXPECT_NEAR(report.score("B", 2), 0.0, 1e-12);
  EXPECT_GT(report.score("total", 0), 0.0);
}

TEST(Sensitivity, ObservationCountIsBaselinePlusVariations) {
  TwoRegionApp app;
  const auto space = three_param_space();
  SensitivityOptions opt;
  opt.n_variations = 4;
  SensitivityAnalyzer analyzer(opt);
  const auto report = analyzer.analyze(app, space, {1.0, 1.0, 1.0});
  // 1 baseline + up to 4 variations per parameter (ladder may dedup).
  EXPECT_GE(report.observations, 1u + 3u * 2u);
  EXPECT_LE(report.observations, 1u + 3u * 4u);
}

TEST(Sensitivity, MatchesPaperFormulaExactly) {
  // Region time = c[0]; variations from ladder around baseline 10 with
  // factor 2: values 20, 40. Variability = mean(|10-20|/10, |10-40|/10).
  class Linear final : public search::RegionObjective {
   public:
    RegionTimes evaluate_regions(const Config& c) override {
      RegionTimes t;
      t.regions["R"] = c[0];
      t.total = c[0];
      return t;
    }
  };
  SearchSpace s;
  s.add(ParamSpec::real("p", 1.0, 100.0, 10.0));
  Linear app;
  SensitivityOptions opt;
  opt.n_variations = 2;
  opt.ladder_factor = 2.0;
  SensitivityAnalyzer analyzer(opt);
  const auto report = analyzer.analyze(app, s, {10.0});
  EXPECT_NEAR(report.score("R", 0), (1.0 + 3.0) / 2.0, 1e-12);
}

TEST(Sensitivity, TopKOrdering) {
  TwoRegionApp app;
  const auto space = three_param_space();
  SensitivityAnalyzer analyzer;
  const auto report = analyzer.analyze(app, space, {1.0, 1.0, 1.0});
  const auto top = report.top("B", 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].param_name, "p1");
  EXPECT_EQ(top[1].param_name, "p0");
  EXPECT_GE(top[0].variability, top[1].variability);
  EXPECT_EQ(report.top("B", 99).size(), 3u);  // capped at param count
}

TEST(Sensitivity, UnknownRegionThrows) {
  TwoRegionApp app;
  const auto space = three_param_space();
  SensitivityAnalyzer analyzer;
  const auto report = analyzer.analyze(app, space, {1.0, 1.0, 1.0});
  EXPECT_THROW(report.score("nope", 0), std::out_of_range);
}

TEST(Sensitivity, InvalidBaselineThrows) {
  TwoRegionApp app;
  auto space = three_param_space();
  SensitivityAnalyzer analyzer;
  EXPECT_THROW(analyzer.analyze(app, space, {-5.0, 1.0, 1.0}), std::invalid_argument);
}

TEST(Sensitivity, ZeroBaselineRegionThrows) {
  class ZeroRegion final : public search::RegionObjective {
   public:
    RegionTimes evaluate_regions(const Config&) override {
      RegionTimes t;
      t.regions["Z"] = 0.0;
      t.total = 1.0;
      return t;
    }
  };
  SearchSpace s;
  s.add(ParamSpec::real("p", 0.1, 10.0, 1.0));
  ZeroRegion app;
  SensitivityAnalyzer analyzer;
  EXPECT_THROW(analyzer.analyze(app, s, {1.0}), std::invalid_argument);
}

TEST(Sensitivity, ExpertValuesMode) {
  TwoRegionApp app;
  const auto space = three_param_space();
  SensitivityOptions opt;
  opt.mode = VariationMode::ExpertValues;
  opt.expert_values["p0"] = {2.0, 4.0};
  opt.n_variations = 3;  // ladder fallback for p1/p2
  SensitivityAnalyzer analyzer(opt);

  const auto vals = analyzer.variation_values(space.param(0), 1.0);
  EXPECT_EQ(vals, (std::vector<double>{2.0, 4.0}));
  // Fallback param uses the ladder.
  const auto fallback = analyzer.variation_values(space.param(1), 1.0);
  EXPECT_FALSE(fallback.empty());
  for (double v : fallback) EXPECT_NE(v, 1.0);
}

TEST(Sensitivity, SkipsInvalidVariations) {
  class Identity final : public search::RegionObjective {
   public:
    RegionTimes evaluate_regions(const Config& c) override {
      RegionTimes t;
      t.regions["R"] = 1.0 + c[0];
      t.total = 1.0 + c[0];
      return t;
    }
  };
  SearchSpace s;
  s.add(ParamSpec::real("p", 0.0, 100.0, 1.0));
  s.add_constraint("small", [](const Config& c) { return c[0] <= 1.5; });
  Identity app;
  SensitivityOptions opt;
  opt.n_variations = 10;  // most ladder steps violate the constraint
  SensitivityAnalyzer analyzer(opt);
  const auto report = analyzer.analyze(app, s, {1.0});
  // Variability computed only from the valid steps (1.1, ~1.21, ~1.331...).
  EXPECT_GT(report.score("R", 0), 0.0);
  EXPECT_LT(report.score("R", 0), 0.3);
}

TEST(Sensitivity, LadderVariationsForOrdinalWalkLevels) {
  SensitivityAnalyzer analyzer;
  const auto spec = ParamSpec::ordinal("tb", {1, 2, 4, 8, 16, 32}, 4);
  const auto vals = analyzer.variation_values(spec, 4.0);
  EXPECT_FALSE(vals.empty());
  for (double v : vals) {
    EXPECT_NE(v, 4.0);
    EXPECT_TRUE(spec.is_valid_value(v));
  }
}

TEST(Sensitivity, LadderFromZeroBaselineUsesSpanWalk) {
  SensitivityOptions opt;
  opt.n_variations = 4;
  SensitivityAnalyzer analyzer(opt);
  const auto spec = ParamSpec::real("x", -1.0, 1.0, 0.0);
  const auto vals = analyzer.variation_values(spec, 0.0);
  EXPECT_FALSE(vals.empty());
  for (double v : vals) EXPECT_NE(v, 0.0);
}

TEST(Sensitivity, SingleMeasurementKeepsStderrZero) {
  TwoRegionApp app;
  const auto space = three_param_space();
  SensitivityAnalyzer analyzer;
  const auto report = analyzer.analyze(app, space, {1.0, 1.0, 1.0});
  for (const auto& r : report.regions()) {
    for (std::size_t p = 0; p < space.size(); ++p) {
      EXPECT_DOUBLE_EQ(report.score_stderr(r, p), 0.0);
      // With zero stderr the lower bound is the score itself: the seed-era
      // influence semantics are unchanged.
      EXPECT_DOUBLE_EQ(report.lower_bound(r, p, 1.96), report.score(r, p));
    }
  }
  EXPECT_EQ(report.failed_observations, 0u);
}

TEST(Sensitivity, RepeatedMeasurementPropagatesStderr) {
  // Each call jitters the region time deterministically, so repeats of the
  // same configuration disperse and the score gets a standard error.
  class Jittery final : public search::RegionObjective {
   public:
    RegionTimes evaluate_regions(const Config& c) override {
      const double jitter = 1.0 + 0.01 * static_cast<double>(call_++ % 5);
      RegionTimes t;
      t.regions["R"] = (10.0 + 2.0 * c[0]) * jitter;
      t.total = t.regions["R"];
      return t;
    }

   private:
    std::size_t call_ = 0;
  };
  SearchSpace s;
  s.add(ParamSpec::real("p", 0.1, 100.0, 1.0));
  Jittery app;
  SensitivityOptions opt;
  opt.n_variations = 3;
  opt.measure.repeats = 5;
  opt.measure.mad_threshold = 0.0;  // keep all samples: jitter is the signal
  SensitivityAnalyzer analyzer(opt);
  const auto report = analyzer.analyze(app, s, {1.0});

  EXPECT_GT(report.score("R", 0), 0.0);
  EXPECT_GT(report.score_stderr("R", 0), 0.0);
  EXPECT_LE(report.lower_bound("R", 0, 1.96), report.score("R", 0));
  EXPECT_GE(report.lower_bound("R", 0, 1.96), 0.0);
  // Every repeat counts as an observation: baseline + variations, 5 each.
  EXPECT_GE(report.observations, 5u * (1u + 2u));
}

TEST(Sensitivity, FailedVariationsAreCountedNotFatal) {
  // Configurations beyond a threshold crash; their variations are dropped
  // and counted, and the score averages over the survivors.
  class Fragile final : public search::RegionObjective {
   public:
    RegionTimes evaluate_regions(const Config& c) override {
      if (c[0] > 10.0) throw std::runtime_error("injected crash");
      RegionTimes t;
      t.regions["R"] = c[0];
      t.total = c[0];
      return t;
    }
  };
  SearchSpace s;
  s.add(ParamSpec::real("p", 1.0, 100.0, 4.0));
  Fragile app;
  SensitivityOptions opt;
  opt.n_variations = 5;
  opt.ladder_factor = 1.5;  // 6, 9, 13.5, 20.25, 30.4 — last three crash
  SensitivityAnalyzer analyzer(opt);
  const auto report = analyzer.analyze(app, s, {4.0});

  EXPECT_EQ(report.failed_observations, 3u);
  // Score from the two surviving variations: mean(|4-6|/4, |4-9|/4).
  EXPECT_NEAR(report.score("R", 0), (0.5 + 1.25) / 2.0, 1e-12);
}

TEST(Sensitivity, FailingBaselineThrowsWithOutcome) {
  class Doomed final : public search::RegionObjective {
   public:
    RegionTimes evaluate_regions(const Config&) override {
      throw std::runtime_error("always dead");
    }
  };
  SearchSpace s;
  s.add(ParamSpec::real("p", 0.1, 10.0, 1.0));
  Doomed app;
  SensitivityAnalyzer analyzer;
  try {
    analyzer.analyze(app, s, {1.0});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("crashed"), std::string::npos);
  }
}

}  // namespace
}  // namespace tunekit::stats
