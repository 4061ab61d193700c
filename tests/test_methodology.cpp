#include "core/methodology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/report.hpp"
#include "synth/synth_app.hpp"
#include "tddft/tddft_app.hpp"

namespace tunekit::core {
namespace {

MethodologyOptions synth_options() {
  MethodologyOptions opt;
  opt.cutoff = 0.25;  // the paper's synthetic cut-off
  opt.sensitivity.n_variations = 100;
  opt.sensitivity.ladder_factor = 1.10;
  opt.importance_samples = 0;
  opt.executor.evals_per_param = 4;  // small budget keeps tests fast
  opt.executor.min_evals = 10;
  opt.executor.enumerate_threshold = 0.0;
  return opt;
}

struct CaseExpectation {
  synth::SynthCase which;
  bool merged;  // Group3+Group4 expected merged?
  // gtest shows each case's parameter as a byte dump of this struct. Spelled
  // out and zeroed, the padding keeps stack garbage out of that dump, so the
  // listed test names are the same from build to build and run to run.
  char pad[3] = {};
};

class SynthPlan : public ::testing::TestWithParam<CaseExpectation> {};

TEST_P(SynthPlan, MatchesPaperPartition) {
  synth::SynthApp app(GetParam().which);
  Methodology m(synth_options());
  const auto analysis = m.analyze(app);
  const auto plan = m.make_plan(app, analysis);

  std::vector<std::string> names;
  for (const auto& s : plan.searches) names.push_back(s.name);
  const bool has_merged =
      std::find(names.begin(), names.end(), "Group3+Group4") != names.end();

  EXPECT_EQ(has_merged, GetParam().merged);
  EXPECT_EQ(plan.searches.size(), GetParam().merged ? 3u : 4u);
  // Group1 and Group2 always independent.
  EXPECT_NE(std::find(names.begin(), names.end(), "Group1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Group2"), names.end());
  // Every parameter is tuned somewhere (no dim cap hit: max group is 10).
  EXPECT_TRUE(plan.untuned_params.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SynthPlan,
    ::testing::Values(CaseExpectation{synth::SynthCase::Case1, false},
                      CaseExpectation{synth::SynthCase::Case2, false},
                      CaseExpectation{synth::SynthCase::Case3, true},
                      CaseExpectation{synth::SynthCase::Case4, true},
                      CaseExpectation{synth::SynthCase::Case5, true}),
    [](const auto& info) {
      return "Case" + std::to_string(static_cast<int>(info.param.which));
    });

TEST(Methodology, AnalysisObservationCountIsCheap) {
  // Phase 1+3 must cost O(V * D) evaluations, far below a grid or a full
  // orthogonality analysis.
  synth::SynthApp app(synth::SynthCase::Case3);
  auto opt = synth_options();
  opt.sensitivity.n_variations = 10;
  Methodology m(opt);
  const auto analysis = m.analyze(app);
  EXPECT_LE(analysis.observations, 1u + 20u * 10u);
  EXPECT_GE(analysis.observations, 1u + 20u * 2u);
}

TEST(Methodology, SensitivityTableIIShape) {
  // Case 1: Group 3's top sensitive variables are its own (x10..x14) and
  // Group 4's influence is weak; Case 5 inverts this (Table II).
  synth::SynthApp app1(synth::SynthCase::Case1);
  Methodology m(synth_options());
  const auto a1 = m.analyze(app1);
  const auto top1 = a1.sensitivity.top("Group3", 5);
  for (const auto& e : top1) {
    EXPECT_GE(e.param_index, 10u);
    EXPECT_LE(e.param_index, 14u);
  }

  synth::SynthApp app5(synth::SynthCase::Case5);
  const auto a5 = m.analyze(app5);
  const auto top5 = a5.sensitivity.top("Group3", 3);
  for (const auto& e : top5) {
    EXPECT_GE(e.param_index, 15u);
    EXPECT_LE(e.param_index, 19u);
  }
}

TEST(Methodology, FeatureImportanceProduced) {
  synth::SynthApp app(synth::SynthCase::Case2);
  auto opt = synth_options();
  opt.importance_samples = 60;
  opt.forest.n_trees = 20;
  Methodology m(opt);
  const auto analysis = m.analyze(app);
  ASSERT_EQ(analysis.importance.size(), 20u);
  double total = 0.0;
  for (double v : analysis.importance) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GE(analysis.observations, 60u);
}

TEST(Methodology, FullRunImprovesOverBaseline) {
  synth::SynthApp app(synth::SynthCase::Case4);
  auto opt = synth_options();
  opt.executor.evals_per_param = 6;
  opt.executor.bo.seed = 5;
  Methodology m(opt);
  const auto result = m.run(app);

  const double baseline_value = app.evaluate_regions(app.baseline()).total;
  EXPECT_LT(result.execution.final_times.total, baseline_value);
  EXPECT_GT(result.total_observations, result.analysis.observations);
  EXPECT_FALSE(result.execution.outcomes.empty());
  EXPECT_TRUE(app.space().is_valid(result.execution.final_config));
}

TEST(Methodology, TddftPlanReproducesTableVII) {
  tddft::RtTddftApp app(tddft::PhysicalSystem::case_study_1());
  MethodologyOptions opt;
  opt.cutoff = 0.10;  // the paper's RT-TDDFT cut-off
  opt.importance_samples = 0;
  Methodology m(opt);
  const auto analysis = m.analyze(app);
  const auto plan = m.make_plan(app, analysis);

  // Table VII: MPI Grid (3), Iterations (2), Group1 (3), Group2+3 (10).
  ASSERT_EQ(plan.searches.size(), 4u);
  auto find = [&](const std::string& name) -> const graph::PlannedSearch* {
    for (const auto& s : plan.searches) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const auto* iterations = find("Iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_EQ(iterations->params.size(), 2u);
  EXPECT_EQ(iterations->stage, 0u);

  const auto* mpi = find("MPI Grid");
  ASSERT_NE(mpi, nullptr);
  EXPECT_EQ(mpi->params.size(), 3u);

  const auto* g1 = find("Group1");
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g1->params.size(), 3u);  // only VEC: ZCOPY went to Group2+3

  const auto* g23 = find("Group2+Group3");
  ASSERT_NE(g23, nullptr);
  EXPECT_EQ(g23->params.size(), 10u);  // capped at 10, two dropped
  EXPECT_EQ(g23->dropped_params.size(), 2u);
}

TEST(Methodology, TddftSensitivityShapes) {
  tddft::RtTddftApp app(tddft::PhysicalSystem::case_study_1());
  MethodologyOptions opt;
  opt.cutoff = 0.10;
  opt.importance_samples = 0;
  Methodology m(opt);
  const auto analysis = m.analyze(app);
  const auto& s = analysis.sensitivity;
  const auto& space = app.space();

  // nbatches dominates every GPU group (paper Tables V/VI).
  const std::size_t nbatches = space.index_of("nbatches");
  for (const char* region : {"Group1", "Group2", "Group3"}) {
    EXPECT_EQ(s.top(region, 1)[0].param_index, nbatches) << region;
  }
  // nstb leads the Slater Determinant region.
  EXPECT_EQ(s.top("SlaterDet", 1)[0].param_name, "nstb");
  // The G2 -> G3 cache interdependence is visible above the cut-off.
  EXPECT_GE(s.score("Group3", space.index_of("tb_sm_pair")), 0.10);
  // Group 1's parameters stay below the cut-off on Groups 2 and 3.
  EXPECT_LT(s.score("Group2", space.index_of("u_vec")), 0.10);
  EXPECT_LT(s.score("Group3", space.index_of("u_vec")), 0.10);
}

TEST(Methodology, ReportRendersAllSections) {
  synth::SynthApp app(synth::SynthCase::Case3);
  auto opt = synth_options();
  opt.executor.evals_per_param = 3;
  opt.executor.min_evals = 6;
  Methodology m(opt);
  const auto result = m.run(app);
  const std::string report = full_report(app, result);
  EXPECT_NE(report.find("Influence analysis"), std::string::npos);
  EXPECT_NE(report.find("Search plan"), std::string::npos);
  EXPECT_NE(report.find("Execution"), std::string::npos);
  EXPECT_NE(report.find("Group3+Group4"), std::string::npos);
}

}  // namespace
}  // namespace tunekit::core
