#include "service/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "obs/telemetry.hpp"

namespace tunekit::service {

search::SearchResult EvalScheduler::run(TuningSession& session,
                                        search::Objective& objective) const {
  return run_impl(session, &objective);
}

search::SearchResult EvalScheduler::run(TuningSession& session) const {
  if (!options_.backend) {
    throw std::invalid_argument(
        "EvalScheduler::run(session) needs SchedulerOptions::backend");
  }
  return run_impl(session, nullptr);
}

search::SearchResult EvalScheduler::run_impl(TuningSession& session,
                                             search::Objective* objective) const {
  std::size_t n_threads = options_.n_threads;
  obs::Telemetry* telemetry = options_.telemetry;
  const bool traced = telemetry != nullptr && telemetry->enabled();

  // Resolve the evaluation backend: an explicit one (shared pool or fleet
  // dispatcher) wins; otherwise process isolation builds a WorkerPool. The
  // backend's SIGKILL/transport deadline takes over from the in-process
  // watchdog (two competing timers would double-classify), and thread-safety
  // of the in-process objective no longer matters — slots are independent.
  std::shared_ptr<robust::EvalBackend> backend = options_.backend;
  if (backend) {
    if (n_threads == 0) n_threads = std::max<std::size_t>(1, backend->concurrency());
  } else {
    if (n_threads == 0) {
      n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    robust::IsolationOptions isolation = options_.isolation;
    if (isolation.telemetry == nullptr) isolation.telemetry = telemetry;
    backend = robust::WorkerPool::create(isolation, n_threads);
    if (!backend && !objective->thread_safe()) n_threads = 1;
  }
  const std::size_t batch_size =
      options_.batch_size > 0 ? options_.batch_size : n_threads;

  const bool bounded =
      options_.deadline != std::chrono::steady_clock::time_point::max();
  robust::MeasureOptions measure = options_.measure;
  // The configured per-evaluation deadline; each batch clamps it to the
  // remaining end-to-end budget below.
  const double watchdog_seconds = measure.watchdog.timeout_seconds;
  std::unique_ptr<robust::SandboxedObjective> sandboxed;
  if (backend) {
    sandboxed = std::make_unique<robust::SandboxedObjective>(backend, watchdog_seconds);
    measure.watchdog.timeout_seconds = std::numeric_limits<double>::infinity();
  }
  search::Objective* eval_obj = sandboxed ? sandboxed.get() : objective;

  ThreadPool pool(n_threads);
  while (true) {
    robust::MeasureOptions batch_measure = measure;
    if (bounded) {
      const double remaining = std::chrono::duration<double>(
          options_.deadline - std::chrono::steady_clock::now()).count();
      if (remaining <= 0.0) {
        log_warn("scheduler: end-to-end deadline spent; stopping with ",
                 session.completed(), " evaluations recorded");
        if (traced) {
          telemetry->metrics().counter(obs::metric::kDeadlineStopped).inc();
        }
        break;
      }
      if (sandboxed) {
        // Rebind the backend sandbox so no dispatch in this batch is granted
        // more than the remaining budget.
        sandboxed = std::make_unique<robust::SandboxedObjective>(
            backend, std::min(watchdog_seconds, remaining));
        eval_obj = sandboxed.get();
      } else {
        batch_measure.watchdog.timeout_seconds =
            std::min(batch_measure.watchdog.timeout_seconds, remaining);
      }
    }
    const robust::RobustMeasurer measurer(batch_measure);
    const auto batch = session.ask(batch_size);
    if (batch.empty()) break;  // exhausted (this driver resolves all it asks)
    // The batch span is opened on this thread; pool threads adopt its id via
    // CurrentSpanScope so their "eval" spans nest under it (thread-local
    // ambient spans do not cross thread boundaries by themselves).
    obs::ScopedSpan batch_span(telemetry, "scheduler.batch");
    if (traced) {
      telemetry->metrics().gauge(obs::metric::kQueueDepth)
          .set(static_cast<double>(batch.size()));
    }
    const auto evaluate = [&](std::size_t i) {
      const Candidate& c = batch[i];
      obs::CurrentSpanScope ambient(batch_span.id());
      obs::ScopedSpan eval_span(telemetry, "eval");
      if (traced) telemetry->metrics().counter(obs::metric::kEvalsStarted).inc();
      Stopwatch round_trip;
      try {
        // The measurer catches everything the objective can throw — including
        // non-std::exception throws — and classifies it; a hung evaluation
        // comes back TimedOut once the watchdog deadline expires.
        const robust::Measurement m = measurer.measure(*eval_obj, c.config);
        eval_span.end();
        if (traced) {
          obs::outcome_counter(telemetry->metrics(), robust::to_string(m.outcome)).inc();
          telemetry->metrics()
              .histogram(obs::metric::kEvalSeconds, obs::default_time_buckets())
              .observe(m.seconds);
        }
        // Thread-local slot provenance: set by WorkerPool::evaluate whether
        // the pool is ours or wraps the objective upstream (the executor
        // sandboxes at app level); -1 when no pool ever ran on this thread.
        const int slot = robust::last_worker_slot();
        const std::string& node = robust::last_worker_node();
        if (m.outcome == robust::EvalOutcome::Ok) {
          session.tell(c.id, m.value, m.seconds, m.dispersion,
                       round_trip.seconds() * 1e3, slot, node);
        } else {
          log_warn("scheduler: candidate ", c.id, " failed as ",
                   robust::to_string(m.outcome),
                   m.error.empty() ? "" : (" (" + m.error + ")"));
          session.tell_failure(c.id, m.outcome, node);
        }
      } catch (...) {
        // Belt and braces: nothing above should throw, but a worker must
        // never leave a candidate unresolved.
        session.tell_failure(c.id, robust::EvalOutcome::Crashed);
      }
    };
    // A lone candidate (every batch of a one-worker search) runs right here:
    // handing it to the pool would add two thread wake-ups per evaluation.
    if (batch.size() == 1) {
      evaluate(0);
    } else {
      pool.parallel_for(batch.size(), evaluate);
    }
    if (traced) telemetry->metrics().gauge(obs::metric::kQueueDepth).set(0.0);
    // A kill between batches loses at most this batch's counter updates.
    session.flush_metrics();
  }
  return session.to_result();
}

}  // namespace tunekit::service
