#include "core/executor.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "core/tunable_app.hpp"
#include "obs/telemetry.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace tunekit::core {

PlanExecutor::PlanExecutor(ExecutorOptions options) : options_(std::move(options)) {}

std::size_t PlanExecutor::budget_for(std::size_t dims) const {
  return std::max(options_.min_evals, options_.evals_per_param * dims);
}

namespace {

/// Product of discrete cardinalities of the selected params; 0 if any
/// parameter is continuous or the product overflows `limit`.
std::size_t discrete_cardinality(const search::SearchSpace& space,
                                 const std::vector<std::size_t>& params,
                                 std::size_t limit) {
  std::size_t total = 1;
  for (std::size_t idx : params) {
    const std::size_t card = space.param(idx).cardinality();
    if (card == 0) return 0;
    if (total > limit / card) return 0;  // would exceed limit
    total *= card;
  }
  return total;
}

}  // namespace

ExecutionResult PlanExecutor::execute(TunableApp& app,
                                      const graph::SearchPlan& plan) const {
  Stopwatch watch;
  const search::SearchSpace& space = app.space();
  obs::Telemetry* telemetry = options_.telemetry;
  const std::size_t n_threads = std::max<std::size_t>(1, options_.n_threads);

  // Process isolation: evaluate through sandboxed worker processes. The
  // wrap happens at TunableApp level so subspace embedding stays on this
  // side of the process boundary (full-space configs cross the wire), and
  // the pool's SIGKILL deadline takes over from the in-process watchdog.
  robust::IsolationOptions isolation = options_.isolation;
  if (isolation.telemetry == nullptr) isolation.telemetry = telemetry;
  const auto sandbox = robust::WorkerPool::create(isolation, n_threads);
  robust::MeasureOptions measure = options_.measure;
  std::unique_ptr<robust::SandboxedApp> sandboxed;
  if (sandbox) {
    sandboxed = std::make_unique<robust::SandboxedApp>(
        app, sandbox, measure.watchdog.timeout_seconds);
    measure.watchdog.timeout_seconds = std::numeric_limits<double>::infinity();
  }
  TunableApp& eval_app = sandboxed ? *sandboxed : app;

  // Every search is a session driven to exhaustion by this scheduler, which
  // measures each evaluation under `measure` on n_threads workers. It keeps
  // the default thread isolation: the app is already sandboxed above, and a
  // second pool would sandbox every evaluation twice.
  service::SchedulerOptions sched_opts;
  sched_opts.n_threads = n_threads;
  sched_opts.measure = measure;
  sched_opts.telemetry = telemetry;
  const service::EvalScheduler scheduler(sched_opts);

  ExecutionResult exec;
  search::Config base = app.baseline();
  if (!space.is_valid(base)) {
    // Fall back to a deterministic valid sample when the app baseline
    // violates constraints.
    tunekit::Rng rng(options_.seed ^ 0x5eedbeef);
    base = space.sample_valid(rng);
  }

  if (!options_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options_.checkpoint_dir);
  }

  auto run_search = [&](const graph::PlannedSearch& planned, std::size_t search_id,
                        std::size_t budget) {
    obs::ScopedSpan search_span(telemetry, "search." + planned.name);
    SearchOutcome outcome;
    outcome.planned = planned;
    if (budget == 0) {
      outcome.result.method = "skipped";
      return outcome;
    }

    RegionSumObjective region_obj(eval_app, planned.objective_regions);
    search::SubspaceObjective sub_obj(region_obj, space, planned.params, base);

    const std::size_t card = discrete_cardinality(
        space, planned.params,
        static_cast<std::size_t>(options_.enumerate_threshold *
                                 static_cast<double>(budget)) +
            1);
    const bool enumerate =
        options_.enumerate_threshold > 0.0 && card > 0 &&
        static_cast<double>(card) <=
            options_.enumerate_threshold * static_cast<double>(budget);

    service::SessionOptions sopts;
    sopts.telemetry = telemetry;
    sopts.bo = options_.bo;
    sopts.n_init = options_.bo.n_init;
    sopts.failure_penalty = options_.bo.failure_penalty;
    sopts.seed = options_.bo.seed + 7919 * (search_id + 1);
    // A failed evaluation is recorded at failure_penalty at once and costs
    // one budget unit; transient crashes are the watchdog's to retry.
    sopts.max_attempts = 1;
    if (enumerate) {
      sopts.backend = service::SessionBackend::Grid;
      sopts.max_evals = options_.max_total_evals > 0 ? std::min(card, budget) : card;
      log_info("executor: '", planned.name, "' enumerated exhaustively (", sopts.max_evals,
               " configs)");
    } else {
      sopts.backend = service::SessionBackend::Bo;
      sopts.max_evals = budget;
    }

    // With a checkpoint dir each search journals; a search whose journal
    // already exists resumes from it, continuing to the current budget.
    std::string journal;
    if (!options_.checkpoint_dir.empty()) {
      journal = options_.checkpoint_dir + "/search_" + std::to_string(search_id) +
                ".journal.jsonl";
    }
    const auto session =
        !journal.empty() && std::filesystem::exists(journal)
            ? service::TuningSession::resume(sub_obj.space(), sopts, journal)
            : std::make_unique<service::TuningSession>(sub_obj.space(), sopts, journal);
    outcome.result = scheduler.run(*session, sub_obj);
    outcome.result.method = enumerate ? "enumerate" : "bo";
    if (outcome.result.found()) {
      for (std::size_t k = 0; k < planned.params.size(); ++k) {
        outcome.tuned_values[space.param(planned.params[k]).name()] =
            outcome.result.best_config[k];
      }
    }
    return outcome;
  };

  std::size_t search_id = 0;
  for (std::size_t stage = 0; stage < plan.n_stages(); ++stage) {
    // A stage's searches run one after another, each from the same base;
    // their tuned values are adopted only once the whole stage is done.
    // Budgets are claimed in plan order against the total budget (paper
    // step 1: a predetermined computing budget bounds the whole tuning
    // campaign): a search the remaining budget cannot cover is truncated,
    // and one left with nothing is skipped.
    std::size_t claimed = exec.total_evaluations;
    std::vector<SearchOutcome> stage_outcomes;
    for (const graph::PlannedSearch* planned : plan.stage_searches(stage)) {
      std::size_t budget = budget_for(planned->params.size());
      if (options_.max_total_evals > 0) {
        const std::size_t remaining =
            options_.max_total_evals > claimed ? options_.max_total_evals - claimed : 0;
        budget = std::min(budget, remaining);
        if (budget > 0 && budget < 3) budget = 0;  // too small to search meaningfully
        if (budget == 0) {
          log_warn("executor: budget exhausted; skipping search '", planned->name, "'");
        }
      }
      claimed += budget;
      stage_outcomes.push_back(run_search(*planned, search_id++, budget));
    }

    // Adopt this stage's tuned values into the base configuration.
    for (auto& outcome : stage_outcomes) {
      if (outcome.result.found()) {
        for (std::size_t k = 0; k < outcome.planned.params.size(); ++k) {
          base[outcome.planned.params[k]] = outcome.result.best_config[k];
        }
      }
      exec.total_evaluations += outcome.result.evaluations;
      exec.outcomes.push_back(std::move(outcome));
    }
  }

  exec.final_config = base;
  // The confirming measurement of the tuned configuration runs under the
  // same hardening. If even the final measurement fails, report NaN times
  // rather than aborting after the whole campaign succeeded.
  const robust::RobustMeasurer measurer(measure);
  obs::ScopedSpan final_span(telemetry, "eval");
  const robust::Measurement final_m = measurer.measure_regions(eval_app, base);
  final_span.end();
  if (final_m.outcome == robust::EvalOutcome::Ok) {
    exec.final_times = final_m.regions;
  } else {
    log_warn("executor: final measurement failed as ",
             robust::to_string(final_m.outcome), "; reporting NaN times");
    exec.final_times.total = std::numeric_limits<double>::quiet_NaN();
  }
  ++exec.total_evaluations;
  exec.seconds = watch.seconds();
  return exec;
}

}  // namespace tunekit::core
