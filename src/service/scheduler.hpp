#pragma once
// EvalScheduler: drives a TuningSession to exhaustion against an in-process
// objective, evaluating each asked batch concurrently on a thread pool.
// core::PlanExecutor runs every planned search through it.
//
// This is what gives tunekit *intra-search* parallelism: BayesOpt::run()
// evaluates strictly one configuration per iteration, while the scheduler
// asks for `batch_size` constant-liar candidates at a time and spreads them
// across workers — the win grows with the cost of a single evaluation
// (real HPC evaluations are minutes, not microseconds). With one worker it
// is the plain sequential ask/evaluate/tell loop. Failing
// evaluations are reported with tell_failure() and their classified
// EvalOutcome, so the session's retry / failure_penalty policy applies and
// the journal records *why* each candidate failed.
//
// Each evaluation runs through a RobustMeasurer (`measure` options): with a
// finite watchdog timeout a hung objective is cancelled and classified
// TimedOut instead of wedging a worker forever; with repeats > 1 the session
// is told the MAD-trimmed mean and its dispersion.

#include <chrono>
#include <cstddef>

#include "robust/measure.hpp"
#include "robust/worker_pool.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"
#include "service/session.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::service {

struct SchedulerOptions {
  /// Worker threads; 0 = hardware_concurrency(). Forced to 1 when the
  /// objective is not thread-safe (unless process isolation is active —
  /// worker processes are independent regardless of the objective).
  std::size_t n_threads = 0;
  /// Candidates requested per ask(); 0 = one per worker.
  std::size_t batch_size = 0;
  /// Watchdog timeout, transient-crash retries, and repeat count applied to
  /// every evaluation. Defaults reproduce the seed behavior (one bare call).
  robust::MeasureOptions measure;
  /// IsolationMode::Process routes every evaluation to a pool of sandboxed
  /// worker processes; the in-process watchdog timeout is then disabled in
  /// favor of the pool's SIGKILL deadline. Defaults to Thread (old behavior).
  robust::IsolationOptions isolation;
  /// Explicit evaluation backend (a shared WorkerPool or a fleet
  /// dispatcher). When set it wins over `isolation` — the scheduler drives
  /// it directly, with no branching on where the slots live — and
  /// `n_threads`/`batch_size` default to its concurrency().
  std::shared_ptr<robust::EvalBackend> backend;
  /// Spans ("scheduler.batch" → "eval") and evaluation counters/histograms
  /// (null = disabled, the default; the disabled path is a single branch).
  obs::Telemetry* telemetry = nullptr;
  /// Absolute end-to-end budget (the client's propagated deadline): no new
  /// batch is asked once it passes, and each batch's per-evaluation deadline
  /// is clamped to the remaining budget so a dispatch never outlives it.
  /// time_point::max() (the default) disables the bound.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

class EvalScheduler {
 public:
  explicit EvalScheduler(SchedulerOptions options = {}) : options_(options) {}

  /// Ask/evaluate/tell until the session stops issuing candidates. Returns
  /// the session's result (method "session-<backend>").
  search::SearchResult run(TuningSession& session, search::Objective& objective) const;

  /// Backend-only variant: every evaluation goes to SchedulerOptions::backend
  /// (throws std::invalid_argument when none is set). This is what the fleet
  /// drive path uses — there is no in-process objective at all.
  search::SearchResult run(TuningSession& session) const;

 private:
  search::SearchResult run_impl(TuningSession& session,
                                search::Objective* objective) const;

  SchedulerOptions options_;
};

}  // namespace tunekit::service
