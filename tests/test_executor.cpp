#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>

#include "common/stopwatch.hpp"
#include "core/methodology.hpp"
#include "core/tunable_app.hpp"
#include "synth/synth_app.hpp"

namespace tunekit::core {
namespace {

/// Two-routine app with a stage-relevant global: `chunk` affects both
/// regions; each routine has one knob with a known optimum.
class StagedApp final : public TunableApp {
 public:
  StagedApp() {
    space_.add(search::ParamSpec::integer("chunk", 1, 16, 1));      // global
    space_.add(search::ParamSpec::ordinal("a", {1, 2, 4, 8}, 1));   // routine A
    space_.add(search::ParamSpec::ordinal("b", {1, 2, 4, 8}, 1));   // routine B
  }

  const search::SearchSpace& space() const override { return space_; }

  std::vector<RoutineSpec> routines() const override {
    return {{"A", {1}}, {"B", {2}}};
  }

  std::vector<std::string> outer_regions() const override { return {"Outer"}; }

  search::RegionTimes evaluate_regions(const search::Config& c) override {
    const double chunk_penalty = 1.0 + 8.0 / c[0];
    const double ta = (1.0 + std::abs(std::log2(c[1] / 4.0))) * chunk_penalty;
    const double tb = (1.0 + std::abs(std::log2(c[2] / 2.0))) * chunk_penalty;
    search::RegionTimes t;
    t.regions["A"] = ta;
    t.regions["B"] = tb;
    t.regions["Outer"] = ta + tb + 0.5 * chunk_penalty;
    t.total = t.regions["Outer"];
    return t;
  }

  bool thread_safe() const override { return true; }

 private:
  search::SearchSpace space_;
};

graph::SearchPlan plan_for(StagedApp& app) {
  MethodologyOptions opt;
  opt.cutoff = 0.10;
  opt.importance_samples = 0;
  Methodology m(opt);
  const auto analysis = m.analyze(app);
  return m.make_plan(app, analysis);
}

TEST(PlanExecutor, BudgetRule) {
  ExecutorOptions opt;
  opt.evals_per_param = 10;
  opt.min_evals = 20;
  PlanExecutor exec(opt);
  EXPECT_EQ(exec.budget_for(1), 20u);   // min applies
  EXPECT_EQ(exec.budget_for(5), 50u);   // 10 x dims
  EXPECT_EQ(exec.budget_for(10), 100u); // the paper's 10 x num_parameters
}

TEST(PlanExecutor, ExecutesStagedPlanAndImproves) {
  StagedApp app;
  const auto plan = plan_for(app);
  ASSERT_GE(plan.searches.size(), 3u);  // chunk (stage 0), A, B

  ExecutorOptions opt;
  opt.evals_per_param = 8;
  opt.min_evals = 8;
  opt.bo.seed = 3;
  PlanExecutor exec(opt);
  const auto result = exec.execute(app, plan);

  const double baseline = app.evaluate_regions(app.space().defaults()).total;
  EXPECT_LT(result.final_times.total, baseline);
  EXPECT_TRUE(app.space().is_valid(result.final_config));
  EXPECT_EQ(result.outcomes.size(), plan.searches.size());
  EXPECT_GT(result.total_evaluations, 0u);

  // The tuned config should land near the known optima.
  EXPECT_GE(result.final_config[0], 8.0);   // chunk as large as possible
  EXPECT_DOUBLE_EQ(result.final_config[1], 4.0);  // a* = 4
  EXPECT_DOUBLE_EQ(result.final_config[2], 2.0);  // b* = 2
}

TEST(PlanExecutor, SmallDiscreteSearchesAreEnumerated) {
  StagedApp app;
  const auto plan = plan_for(app);
  ExecutorOptions opt;
  opt.evals_per_param = 10;
  opt.min_evals = 20;
  opt.enumerate_threshold = 1.0;
  PlanExecutor exec(opt);
  const auto result = exec.execute(app, plan);
  // Routine searches over 4 levels are cheaper to enumerate than to model.
  std::size_t enumerated = 0;
  for (const auto& o : result.outcomes) {
    if (o.result.method == "enumerate") ++enumerated;
  }
  EXPECT_GE(enumerated, 2u);
}

TEST(PlanExecutor, StageZeroResultFeedsLaterStages) {
  StagedApp app;
  const auto plan = plan_for(app);
  ExecutorOptions opt;
  opt.evals_per_param = 8;
  opt.min_evals = 8;
  PlanExecutor exec(opt);
  const auto result = exec.execute(app, plan);

  // The global search ran first and its tuned value is in the final config.
  const auto& first = result.outcomes.front();
  EXPECT_EQ(first.planned.stage, 0u);
  ASSERT_TRUE(first.tuned_values.count("chunk"));
  EXPECT_DOUBLE_EQ(result.final_config[0], first.tuned_values.at("chunk"));
}

TEST(PlanExecutor, ParallelStageMatchesSequential) {
  StagedApp app_seq, app_par;
  const auto plan = plan_for(app_seq);

  ExecutorOptions seq;
  seq.evals_per_param = 6;
  seq.min_evals = 6;
  seq.n_threads = 1;
  seq.bo.seed = 9;
  ExecutorOptions par = seq;
  par.n_threads = 4;

  const auto r_seq = PlanExecutor(seq).execute(app_seq, plan);
  const auto r_par = PlanExecutor(par).execute(app_par, plan);
  EXPECT_EQ(r_seq.final_config, r_par.final_config);
}

TEST(PlanExecutor, TotalBudgetTruncatesAndSkips) {
  StagedApp app;
  const auto plan = plan_for(app);
  ASSERT_GE(plan.searches.size(), 3u);

  ExecutorOptions opt;
  opt.evals_per_param = 10;
  opt.min_evals = 10;
  opt.max_total_evals = 12;  // enough for one search plus a stub
  opt.enumerate_threshold = 1.0;
  const auto result = PlanExecutor(opt).execute(app, plan);

  // Total evaluations respect the cap (+1 for the final verification run).
  EXPECT_LE(result.total_evaluations, 13u);
  // At least one later search was skipped outright.
  std::size_t skipped = 0;
  for (const auto& o : result.outcomes) {
    if (o.result.method == "skipped") ++skipped;
  }
  EXPECT_GE(skipped, 1u);
  // The final configuration is still valid and evaluable.
  EXPECT_TRUE(app.space().is_valid(result.final_config));
}

TEST(PlanExecutor, UnlimitedBudgetRunsEverySearch) {
  StagedApp app;
  const auto plan = plan_for(app);
  ExecutorOptions opt;
  opt.evals_per_param = 5;
  opt.min_evals = 5;
  opt.max_total_evals = 0;  // unlimited
  const auto result = PlanExecutor(opt).execute(app, plan);
  for (const auto& o : result.outcomes) {
    EXPECT_NE(o.result.method, "skipped");
    EXPECT_GT(o.result.evaluations, 0u);
  }
}

/// Wraps another app, adding a fixed sleep per region evaluation — turns the
/// instant synthetic model into an "expensive" objective so intra-search
/// parallelism has something to win.
class SlowApp final : public TunableApp {
 public:
  SlowApp(TunableApp& inner, double sleep_ms) : inner_(inner), sleep_ms_(sleep_ms) {}

  const search::SearchSpace& space() const override { return inner_.space(); }
  std::vector<RoutineSpec> routines() const override { return inner_.routines(); }
  std::vector<std::string> outer_regions() const override {
    return inner_.outer_regions();
  }
  search::Config baseline() const override { return inner_.baseline(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

  search::RegionTimes evaluate_regions(const search::Config& c) override {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(sleep_ms_ * 1000.0)));
    return inner_.evaluate_regions(c);
  }

 private:
  TunableApp& inner_;
  double sleep_ms_;
};

TEST(PlanExecutor, SessionSchedulerProducesValidPlanResult) {
  StagedApp app;
  const auto plan = plan_for(app);

  ExecutorOptions opt;
  opt.evals_per_param = 8;
  opt.min_evals = 8;
  opt.bo.seed = 3;
  opt.n_threads = 4;
  const auto result = PlanExecutor(opt).execute(app, plan);

  EXPECT_TRUE(app.space().is_valid(result.final_config));
  EXPECT_EQ(result.outcomes.size(), plan.searches.size());
  for (const auto& o : result.outcomes) {
    EXPECT_TRUE(o.result.method == "bo" || o.result.method == "enumerate") << o.result.method;
    EXPECT_GT(o.result.evaluations, 0u);
  }
  const double baseline = app.evaluate_regions(app.space().defaults()).total;
  EXPECT_LT(result.final_times.total, baseline);
}

TEST(PlanExecutor, SessionSchedulerBeatsSequentialOnSlowApp) {
  StagedApp inner_seq, inner_par;
  const auto plan = plan_for(inner_seq);
  const double sleep_ms = 5.0;

  ExecutorOptions base;
  base.evals_per_param = 8;
  base.min_evals = 8;
  base.bo.seed = 3;
  base.enumerate_threshold = 0.0;  // force BO so budgets match exactly

  ExecutorOptions seq = base;  // one worker: batches of one
  ExecutorOptions par = base;
  par.n_threads = 8;

  SlowApp slow_seq(inner_seq, sleep_ms);
  SlowApp slow_par(inner_par, sleep_ms);

  Stopwatch w_seq;
  const auto r_seq = PlanExecutor(seq).execute(slow_seq, plan);
  const double t_seq = w_seq.seconds();

  Stopwatch w_par;
  const auto r_par = PlanExecutor(par).execute(slow_par, plan);
  const double t_par = w_par.seconds();

  // Equal budget, measurably less wall-clock with batched evaluation.
  EXPECT_EQ(r_par.total_evaluations, r_seq.total_evaluations);
  EXPECT_LT(t_par, t_seq);
  EXPECT_TRUE(slow_par.space().is_valid(r_par.final_config));
}

TEST(PlanExecutor, SessionSchedulerCase3EightThreads) {
  // The acceptance scenario: synth:case3 through the scheduler on 8 threads
  // vs the sequential path at equal budget. Synthetic evaluations are
  // instant, so a fixed per-evaluation sleep stands in for a real measured
  // kernel and makes the wall-clock difference observable.
  synth::SynthApp inner_seq(synth::SynthCase::Case3, 0.01, 11);
  synth::SynthApp inner_par(synth::SynthCase::Case3, 0.01, 11);

  MethodologyOptions mopt;
  mopt.cutoff = 0.25;
  mopt.sensitivity.n_variations = 30;
  mopt.importance_samples = 0;
  Methodology m(mopt);
  const auto plan = m.make_plan(inner_seq, m.analyze(inner_seq));
  ASSERT_FALSE(plan.searches.empty());

  ExecutorOptions base;
  base.evals_per_param = 4;
  base.min_evals = 4;
  base.bo.seed = 11;
  base.enumerate_threshold = 0.0;  // same backend both paths: equal budget
  ExecutorOptions par = base;
  par.n_threads = 8;

  SlowApp slow_seq(inner_seq, 4.0);
  SlowApp slow_par(inner_par, 4.0);

  Stopwatch w_seq;
  const auto r_seq = PlanExecutor(base).execute(slow_seq, plan);
  const double t_seq = w_seq.seconds();
  Stopwatch w_par;
  const auto r_par = PlanExecutor(par).execute(slow_par, plan);
  const double t_par = w_par.seconds();

  EXPECT_EQ(r_par.total_evaluations, r_seq.total_evaluations);
  EXPECT_EQ(r_par.outcomes.size(), plan.searches.size());
  EXPECT_TRUE(inner_par.space().is_valid(r_par.final_config));
  EXPECT_LT(t_par, t_seq);
}

TEST(PlanExecutor, SessionSchedulerJournalsAndResumes) {
  StagedApp app;
  const auto plan = plan_for(app);
  const auto dir = std::filesystem::temp_directory_path() / "tunekit_exec_journals";
  std::filesystem::remove_all(dir);

  ExecutorOptions opt;
  opt.evals_per_param = 6;
  opt.min_evals = 6;
  opt.n_threads = 2;
  opt.checkpoint_dir = dir.string();
  const auto first = PlanExecutor(opt).execute(app, plan);
  EXPECT_TRUE(app.space().is_valid(first.final_config));

  // One journal per search was written.
  std::size_t journals = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().string().ends_with(".journal.jsonl")) ++journals;
  }
  EXPECT_EQ(journals, plan.searches.size());

  // A rerun with resume picks the finished journals up and still produces a
  // valid result (every search is already exhausted, so no new evals).
  const auto second = PlanExecutor(opt).execute(app, plan);
  EXPECT_TRUE(app.space().is_valid(second.final_config));

  std::filesystem::remove_all(dir);
}

/// Forwards to another app, counting the evaluations that reach it; those
/// for which `fails` holds throw, as a crashing application run would.
class CountingApp final : public TunableApp {
 public:
  explicit CountingApp(TunableApp& inner,
                       std::function<bool(const search::Config&)> fails = nullptr)
      : inner_(inner), fails_(std::move(fails)) {}

  const search::SearchSpace& space() const override { return inner_.space(); }
  std::vector<RoutineSpec> routines() const override { return inner_.routines(); }
  std::vector<std::string> outer_regions() const override {
    return inner_.outer_regions();
  }
  search::Config baseline() const override { return inner_.baseline(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

  search::RegionTimes evaluate_regions(const search::Config& c) override {
    ++calls_;
    if (fails_ && fails_(c)) {
      ++failures_;
      throw std::runtime_error("application crashed");
    }
    return inner_.evaluate_regions(c);
  }

  std::size_t calls() const { return calls_; }
  std::size_t failures() const { return failures_; }

 private:
  TunableApp& inner_;
  std::function<bool(const search::Config&)> fails_;
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> failures_{0};
};

TEST(PlanExecutor, CheckpointDirResumesSearchesToALargerBudget) {
  StagedApp app;
  const auto plan = plan_for(app);
  const auto dir = std::filesystem::temp_directory_path() / "tunekit_exec_resume";
  std::filesystem::remove_all(dir);

  ExecutorOptions opt;
  opt.evals_per_param = 3;
  opt.min_evals = 3;
  opt.enumerate_threshold = 0.0;  // BO everywhere: each search spends its budget
  opt.checkpoint_dir = dir.string();
  const auto first = PlanExecutor(opt).execute(app, plan);

  // Rerun on the same directory with twice the budget: every search resumes
  // from its journal, so the app runs only the new evaluations.
  opt.evals_per_param = 6;
  opt.min_evals = 6;
  const PlanExecutor larger(opt);
  CountingApp counted(app);
  const auto second = larger.execute(counted, plan);
  ASSERT_EQ(second.outcomes.size(), first.outcomes.size());
  std::size_t new_evals = 0;
  for (std::size_t i = 0; i < second.outcomes.size(); ++i) {
    const auto& o = second.outcomes[i];
    EXPECT_EQ(o.result.evaluations, larger.budget_for(o.planned.params.size()))
        << o.planned.name;
    EXPECT_LT(first.outcomes[i].result.evaluations, o.result.evaluations);
    new_evals += o.result.evaluations - first.outcomes[i].result.evaluations;
  }
  EXPECT_EQ(counted.calls(), new_evals + 1);  // + the final measurement
  EXPECT_TRUE(app.space().is_valid(second.final_config));

  std::filesystem::remove_all(dir);
}

TEST(PlanExecutor, EvaluationCountMatchesAppCallsWhenEvaluationsFail) {
  // A failed evaluation is recorded once and costs one budget unit; nothing
  // is re-run behind the count, sequentially or in batches.
  for (const std::size_t threads : {1u, 4u}) {
    StagedApp inner;
    const auto plan = plan_for(inner);
    CountingApp app(inner, [](const search::Config& c) { return c[1] == 8.0 || c[2] == 8.0; });
    ExecutorOptions opt;
    opt.evals_per_param = 6;
    opt.min_evals = 6;
    opt.enumerate_threshold = 0.0;
    opt.n_threads = threads;
    const auto result = PlanExecutor(opt).execute(app, plan);
    EXPECT_GT(app.failures(), 0u) << threads << " threads";
    EXPECT_EQ(result.total_evaluations, app.calls()) << threads << " threads";
  }
}

TEST(PlanExecutor, TunedValuesNamedCorrectly) {
  StagedApp app;
  const auto plan = plan_for(app);
  ExecutorOptions opt;
  opt.evals_per_param = 5;
  opt.min_evals = 5;
  const auto result = PlanExecutor(opt).execute(app, plan);
  for (const auto& o : result.outcomes) {
    EXPECT_EQ(o.tuned_values.size(), o.planned.params.size());
    for (std::size_t p : o.planned.params) {
      EXPECT_TRUE(o.tuned_values.count(app.space().param(p).name()));
    }
  }
}

}  // namespace
}  // namespace tunekit::core
