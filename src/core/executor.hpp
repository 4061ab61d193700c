#pragma once
// PlanExecutor: runs a SearchPlan against a TunableApp.
//
// Stages run sequentially; stage results (tuned parameter values) are
// written into the base configuration before the next stage starts — this
// is how "first determine the batch value that optimizes the Slater
// Determinant region" happens before the per-group searches. A stage's
// searches (disjoint parameters) run one after another from the same base.
//
// Every search runs one way: a service::TuningSession driven to exhaustion
// by a service::EvalScheduler, in memory, or journaled when a checkpoint
// directory is given (the journal is the only crash-recovery format).
// Backend choice per search: BO by default; a search whose discrete
// sub-space is smaller than its evaluation budget is exhaustively
// enumerated instead (the paper obtains the MPI grid "without incurring the
// overhead of a guided BO search").

#include <string>
#include <vector>

#include "bo/bayes_opt.hpp"
#include "graph/search_plan.hpp"
#include "robust/measure.hpp"
#include "robust/worker_pool.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::core {

class TunableApp;  // fwd

struct ExecutorOptions {
  /// Evaluation budget per search: max(min_evals, evals_per_param * dims).
  /// The paper uses 10 x num_parameters.
  std::size_t evals_per_param = 10;
  std::size_t min_evals = 20;

  /// Total evaluation budget across all searches (the paper's step 1:
  /// "define the maximum cost of the tuning search"). 0 = unlimited. When
  /// the remaining budget is smaller than a search's nominal budget, the
  /// search is truncated; searches after exhaustion are skipped (their
  /// parameters keep the base configuration).
  std::size_t max_total_evals = 0;

  /// Template BO options for every search's session: `seed` is offset per
  /// search, and `max_evals` and `warm_start` are ignored (the budget rule
  /// above sets each search's budget; see SessionOptions::bo).
  bo::BoOptions bo;

  /// Enumerate exhaustively instead of BO when the discrete sub-space has
  /// at most this multiple of the search budget (1.0 = enumerate only when
  /// cheaper than the BO budget; 0 disables enumeration).
  double enumerate_threshold = 1.0;

  /// Evaluation workers per search. Above 1 each search asks for
  /// constant-liar batches of this size and evaluates them concurrently
  /// (requires a thread-safe app; otherwise batches of one).
  std::size_t n_threads = 1;

  /// Directory for per-search crash-recovery journals; empty keeps every
  /// search in memory. Search i journals to <dir>/search_<i>.journal.jsonl;
  /// when that journal already exists the search resumes from it (its
  /// completed evaluations restored, in-flight candidates re-issued) and
  /// continues to the current budget.
  std::string checkpoint_dir;

  /// Hardened-evaluation settings applied to every search evaluation:
  /// watchdog timeout, transient-crash retries, and repeats with MAD outlier
  /// rejection. Defaults are the seed behavior (one bare call, no deadline).
  robust::MeasureOptions measure;

  /// IsolationMode::Process wraps the app in a SandboxedApp: every search
  /// evaluation and the final confirming measurement run in worker
  /// processes, the watchdog deadline becomes the workers' SIGKILL deadline,
  /// and repeatedly-crashing configurations are quarantined. Defaults to
  /// Thread — the in-process path.
  robust::IsolationOptions isolation;

  /// Spans ("search.<name>" per planned search, propagated into the drivers)
  /// and evaluation metrics (null = disabled, the default).
  obs::Telemetry* telemetry = nullptr;

  std::uint64_t seed = 1234;
};

struct SearchOutcome {
  graph::PlannedSearch planned;
  search::SearchResult result;
  /// Tuned values adopted into the final configuration, by parameter name.
  search::NamedConfig tuned_values;
};

struct ExecutionResult {
  std::vector<SearchOutcome> outcomes;
  search::Config final_config;
  search::RegionTimes final_times;
  std::size_t total_evaluations = 0;
  double seconds = 0.0;
};

class PlanExecutor {
 public:
  explicit PlanExecutor(ExecutorOptions options = {});

  ExecutionResult execute(TunableApp& app, const graph::SearchPlan& plan) const;

  /// Budget for one search of the given dimensionality.
  std::size_t budget_for(std::size_t dims) const;

 private:
  ExecutorOptions options_;
};

}  // namespace tunekit::core
