// Cross-module integration tests: the full methodology against apps with
// real measurements, crashing evaluations, and checkpoint recovery — the
// robustness scenarios a production tuning campaign hits.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/methodology.hpp"
#include "core/report.hpp"
#include "minislater/minislater_app.hpp"
#include "synth/synth_app.hpp"

namespace tunekit::core {
namespace {

TEST(Integration, MethodologyOnRealMeasuredKernels) {
  // Tiny MiniSlater instance: the whole pipeline (sensitivity on measured
  // times -> plan -> staged searches) must complete and produce a valid,
  // evaluable configuration.
  minislater::MiniSlaterApp app(/*n=*/16, /*bands=*/2, /*reps=*/1);
  MethodologyOptions opt;
  opt.cutoff = 0.15;  // real timer noise needs a slightly higher cut-off
  opt.importance_samples = 0;
  opt.executor.evals_per_param = 3;
  opt.executor.min_evals = 6;
  opt.executor.bo.seed = 3;
  Methodology m(opt);
  const auto result = m.run(app);

  EXPECT_FALSE(result.plan.searches.empty());
  EXPECT_TRUE(app.space().is_valid(result.execution.final_config));
  EXPECT_GT(result.execution.final_times.total, 0.0);
  EXPECT_GT(result.total_observations, result.analysis.observations);
}

/// App whose evaluation crashes on part of the space.
class FlakyApp final : public TunableApp {
 public:
  FlakyApp() {
    space_.add(search::ParamSpec::integer("a", 1, 16, 4));
    space_.add(search::ParamSpec::integer("b", 1, 16, 4));
  }

  const search::SearchSpace& space() const override { return space_; }
  std::vector<RoutineSpec> routines() const override {
    return {{"A", {0}}, {"B", {1}}};
  }

  search::RegionTimes evaluate_regions(const search::Config& c) override {
    ++evaluations;
    if (c[0] > 12.0) throw std::runtime_error("node failure");
    search::RegionTimes t;
    t.regions["A"] = 10.0 + (c[0] - 8.0) * (c[0] - 8.0);
    t.regions["B"] = 10.0 + (c[1] - 3.0) * (c[1] - 3.0);
    t.total = t.regions["A"] + t.regions["B"];
    return t;
  }
  bool thread_safe() const override { return true; }

  std::size_t evaluations = 0;

 private:
  search::SearchSpace space_;
};

TEST(Integration, ExecutorToleratesCrashingRegion) {
  // The BO backend records failures and keeps searching; the final config
  // lands in the non-crashing region. (The baseline and sensitivity ladder
  // stay below the crash threshold by construction: defaults are 4 and the
  // 1.1^k ladder from 4 reaches at most 4 * 1.1^5 < 7.)
  FlakyApp app;
  MethodologyOptions opt;
  opt.cutoff = 0.10;
  opt.importance_samples = 0;
  opt.sensitivity.n_variations = 5;
  opt.executor.evals_per_param = 8;
  opt.executor.min_evals = 12;
  opt.executor.enumerate_threshold = 0.0;  // force BO (grid would throw)
  Methodology m(opt);
  const auto result = m.run(app);
  EXPECT_TRUE(app.space().is_valid(result.execution.final_config));
  EXPECT_LE(result.execution.final_config[0], 12.0);
  EXPECT_GT(result.execution.final_times.total, 0.0);
}

TEST(Integration, CheckpointDirectoryEnablesRecovery) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tunekit_ckpt_test").string();
  std::filesystem::remove_all(dir);

  synth::SynthApp app(synth::SynthCase::Case1);
  MethodologyOptions opt;
  opt.cutoff = 0.25;
  opt.sensitivity.n_variations = 10;
  opt.importance_samples = 0;
  opt.executor.evals_per_param = 2;
  opt.executor.min_evals = 6;
  opt.executor.enumerate_threshold = 0.0;
  opt.executor.checkpoint_dir = dir;
  Methodology m(opt);
  m.run(app);

  // One journal per executed search.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    // Each checkpoint belongs to a 5-dim subspace search.
    SUCCEED() << entry.path();
  }
  EXPECT_GE(files, 4u);
  std::filesystem::remove_all(dir);
}

TEST(Integration, FullReportForRealApp) {
  minislater::MiniSlaterApp app(16, 2, 1);
  MethodologyOptions opt;
  opt.cutoff = 0.15;
  opt.importance_samples = 0;
  opt.executor.evals_per_param = 2;
  opt.executor.min_evals = 4;
  Methodology m(opt);
  const auto result = m.run(app);
  const std::string report = full_report(app, result);
  EXPECT_NE(report.find("MiniSlater"), std::string::npos);
  EXPECT_NE(report.find("Slater"), std::string::npos);
}

}  // namespace
}  // namespace tunekit::core
