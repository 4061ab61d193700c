#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>

#include "common/stopwatch.hpp"
#include "search/objective.hpp"
#include "service/session.hpp"

namespace tunekit::service {
namespace {

search::SearchSpace two_dim_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(search::ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

/// `n` worker threads, each asked for one candidate per batch.
SchedulerOptions workers(std::size_t n) {
  SchedulerOptions o;
  o.n_threads = n;
  o.batch_size = n;
  return o;
}

/// Thread-safe sphere objective that counts calls and records every config
/// it was asked to evaluate, so the stress test can prove nothing was lost
/// or evaluated twice.
class RecordingObjective final : public search::Objective {
 public:
  explicit RecordingObjective(double sleep_ms = 0.0) : sleep_ms_(sleep_ms) {}

  double evaluate(const search::Config& c) override {
    if (sleep_ms_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(sleep_ms_ * 1000.0)));
    }
    calls_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seen_.push_back(c);
    }
    return c[0] * c[0] + c[1] * c[1];
  }

  bool thread_safe() const override { return true; }

  std::size_t calls() const { return calls_.load(); }
  std::vector<search::Config> seen() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
  }

 private:
  double sleep_ms_;
  std::atomic<std::size_t> calls_{0};
  mutable std::mutex mutex_;
  std::vector<search::Config> seen_;
};

/// Crashes on every first attempt of an unseen config, succeeds on retries.
class FlakyObjective final : public search::Objective {
 public:
  double evaluate(const search::Config& c) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (attempted_.insert(c).second) throw std::runtime_error("transient crash");
    return c[0] + c[1];
  }
  bool thread_safe() const override { return true; }

 private:
  std::mutex mutex_;
  std::set<search::Config> attempted_;
};

TEST(EvalScheduler, NoLostOrDuplicateEvaluations) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 64;
  opt.backend = SessionBackend::Random;
  opt.seed = 13;
  TuningSession session(space, opt);

  RecordingObjective objective;
  EvalScheduler scheduler(workers(8));
  const auto result = scheduler.run(session, objective);

  // Budget is consumed exactly: every candidate evaluated once, none lost,
  // none repeated.
  EXPECT_EQ(result.evaluations, 64u);
  EXPECT_EQ(objective.calls(), 64u);
  const auto seen = objective.seen();
  std::set<search::Config> unique(seen.begin(), seen.end());
  EXPECT_EQ(unique.size(), seen.size());
  EXPECT_EQ(session.state(), SessionState::Exhausted);
  EXPECT_EQ(session.outstanding(), 0u);
  ASSERT_TRUE(result.found());
  EXPECT_TRUE(std::isfinite(result.best_value));
}

TEST(EvalScheduler, CrashingEvaluationsAreRetried) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 16;
  opt.max_attempts = 3;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  FlakyObjective objective;
  EvalScheduler scheduler(workers(4));
  const auto result = scheduler.run(session, objective);

  // Every candidate crashed once then succeeded on retry — all 16 recorded.
  EXPECT_EQ(result.evaluations, 16u);
  EXPECT_TRUE(result.found());
  for (const auto& e : session.evaluations()) EXPECT_TRUE(std::isfinite(e.value));
}

TEST(EvalScheduler, AlwaysCrashingConfigsDropAtPenalty) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.max_attempts = 2;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  class DoomedObjective final : public search::Objective {
   public:
    double evaluate(const search::Config&) override {
      throw std::runtime_error("always crashes");
    }
    bool thread_safe() const override { return true; }
  } objective;

  EvalScheduler scheduler(workers(2));
  const auto result = scheduler.run(session, objective);
  // Attempts exhausted for every candidate; budget fully consumed by drops.
  EXPECT_EQ(session.completed(), 6u);
  EXPECT_FALSE(result.found());  // all NaN: no best config
  for (const auto& e : session.evaluations()) EXPECT_TRUE(std::isnan(e.value));
}

TEST(EvalScheduler, NonThreadSafeObjectiveForcedSequential) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 8;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  class SerialObjective final : public search::Objective {
   public:
    double evaluate(const search::Config& c) override {
      const int now = ++in_flight_;
      EXPECT_EQ(now, 1) << "objective entered concurrently";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      --in_flight_;
      return c[0];
    }
    bool thread_safe() const override { return false; }

   private:
    std::atomic<int> in_flight_{0};
  } objective;

  EvalScheduler scheduler(workers(8));
  const auto result = scheduler.run(session, objective);
  EXPECT_EQ(result.evaluations, 8u);
}

TEST(EvalScheduler, ParallelFasterThanSequentialOnSlowObjective) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 24;
  opt.backend = SessionBackend::Random;
  opt.seed = 99;

  const double sleep_ms = 10.0;
  Stopwatch w1;
  {
    TuningSession session(space, opt);
    RecordingObjective objective(sleep_ms);
    EvalScheduler scheduler(workers(1));
    scheduler.run(session, objective);
  }
  const double sequential = w1.seconds();

  Stopwatch w8;
  {
    TuningSession session(space, opt);
    RecordingObjective objective(sleep_ms);
    EvalScheduler scheduler(workers(8));
    scheduler.run(session, objective);
  }
  const double parallel = w8.seconds();

  // 24 x 10ms sequentially is ~240ms; eight workers need only ~3 rounds.
  // Generous 2x margin keeps this robust on loaded CI machines.
  EXPECT_LT(parallel * 2.0, sequential);
}

TEST(EvalScheduler, NonStandardThrowClassifiedAsCrash) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 4;
  opt.max_attempts = 1;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  // Throwing a non-std::exception must not kill the worker pool; it is
  // classified as a crash like any other.
  class RudeObjective final : public search::Objective {
   public:
    double evaluate(const search::Config&) override { throw 42; }
    bool thread_safe() const override { return true; }
  } objective;

  EvalScheduler scheduler(workers(2));
  scheduler.run(session, objective);
  EXPECT_EQ(session.completed(), 4u);
  for (const auto& e : session.evaluations()) {
    EXPECT_EQ(e.outcome, robust::EvalOutcome::Crashed);
    EXPECT_TRUE(std::isnan(e.value));
  }
}

TEST(EvalScheduler, HungEvaluationsTimeOutAndAreClassified) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 4;
  opt.max_attempts = 1;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  // Hangs forever unless the watchdog's cancel flag fires.
  class HangingObjective final : public search::Objective {
   public:
    double evaluate(const search::Config& c) override {
      return evaluate_cancellable(c, search::CancelFlag());
    }
    double evaluate_cancellable(const search::Config&,
                                const search::CancelFlag& cancel) override {
      while (!cancel.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw robust::EvalFailure(robust::EvalOutcome::TimedOut, "cancelled");
    }
    bool thread_safe() const override { return true; }
  } objective;

  SchedulerOptions sched;
  sched.n_threads = 2;
  sched.batch_size = 2;
  sched.measure.watchdog.timeout_seconds = 0.05;
  Stopwatch watch;
  EvalScheduler(sched).run(session, objective);
  // Reclaimed at the deadline, not wedged forever: 4 candidates on 2 workers
  // cost ~2 deadlines.
  EXPECT_LT(watch.seconds(), 5.0);
  EXPECT_EQ(session.completed(), 4u);
  for (const auto& e : session.evaluations()) {
    EXPECT_EQ(e.outcome, robust::EvalOutcome::TimedOut);
    EXPECT_TRUE(std::isnan(e.value));
  }
}

TEST(EvalScheduler, RepeatedMeasurementTellsDispersion) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  // Deterministic per-call jitter around the sphere value: repeats of one
  // config disagree slightly, so the session learns a dispersion.
  class JitteryObjective final : public search::Objective {
   public:
    double evaluate(const search::Config& c) override {
      const auto k = calls_.fetch_add(1, std::memory_order_relaxed);
      const double jitter = 1.0 + 0.02 * static_cast<double>(k % 3);
      return (1.0 + c[0] * c[0] + c[1] * c[1]) * jitter;
    }
    bool thread_safe() const override { return true; }

   private:
    std::atomic<std::size_t> calls_{0};
  } objective;

  SchedulerOptions sched;
  sched.n_threads = 2;
  sched.batch_size = 2;
  sched.measure.repeats = 3;
  sched.measure.mad_threshold = 0.0;  // jitter is the signal — keep all
  EvalScheduler(sched).run(session, objective);

  EXPECT_EQ(session.completed(), 6u);
  std::size_t with_dispersion = 0;
  for (const auto& e : session.evaluations()) {
    EXPECT_EQ(e.outcome, robust::EvalOutcome::Ok);
    if (e.dispersion > 0.0) ++with_dispersion;
  }
  EXPECT_GT(with_dispersion, 0u);
}

}  // namespace
}  // namespace tunekit::service
