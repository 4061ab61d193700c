// Tests for the hardened evaluation layer: failure taxonomy, watchdog
// deadlines with cooperative cancellation, transient-crash retries with
// backoff, MAD outlier rejection, robust repeated measurement, and fault
// injection.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "robust/fault_injection.hpp"
#include "robust/measure.hpp"
#include "robust/outcome.hpp"
#include "robust/watchdog.hpp"
#include "search/objective.hpp"
#include "search/space.hpp"

namespace tunekit::robust {
namespace {

// --- Outcome taxonomy ---

TEST(EvalOutcome, StringsRoundTrip) {
  for (EvalOutcome o : {EvalOutcome::Ok, EvalOutcome::Crashed, EvalOutcome::TimedOut,
                        EvalOutcome::InvalidConfig, EvalOutcome::NonFinite}) {
    EXPECT_EQ(outcome_from_string(to_string(o)), o);
  }
  EXPECT_THROW(outcome_from_string("bogus"), std::invalid_argument);
}

TEST(EvalOutcome, ClassifyValue) {
  EXPECT_EQ(classify_value(1.5), EvalOutcome::Ok);
  EXPECT_EQ(classify_value(0.0), EvalOutcome::Ok);
  EXPECT_EQ(classify_value(std::numeric_limits<double>::quiet_NaN()),
            EvalOutcome::NonFinite);
  EXPECT_EQ(classify_value(std::numeric_limits<double>::infinity()),
            EvalOutcome::NonFinite);
  EXPECT_EQ(classify_value(-std::numeric_limits<double>::infinity()),
            EvalOutcome::NonFinite);
}

TEST(EvalOutcome, IsFailure) {
  EXPECT_FALSE(is_failure(EvalOutcome::Ok));
  EXPECT_TRUE(is_failure(EvalOutcome::Crashed));
  EXPECT_TRUE(is_failure(EvalOutcome::TimedOut));
  EXPECT_TRUE(is_failure(EvalOutcome::InvalidConfig));
  EXPECT_TRUE(is_failure(EvalOutcome::NonFinite));
}

TEST(EvalFailure, CarriesOutcome) {
  const EvalFailure f(EvalOutcome::TimedOut, "deadline");
  EXPECT_EQ(f.outcome(), EvalOutcome::TimedOut);
  EXPECT_STREQ(f.what(), "deadline");
}

// --- MAD helpers ---

TEST(MadHelpers, MedianAndMad) {
  EXPECT_TRUE(std::isnan(median_of({})));
  EXPECT_DOUBLE_EQ(median_of({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(mad_of({1.0, 2.0, 3.0}, 2.0), 1.0);
}

TEST(MadHelpers, KeepRejectsGrossOutlier) {
  const std::vector<double> samples = {10.0, 10.1, 9.9, 10.05, 100.0};
  const auto keep = mad_keep(samples, 3.5);
  ASSERT_EQ(keep.size(), 4u);
  for (std::size_t i : keep) EXPECT_LT(samples[i], 50.0);
}

TEST(MadHelpers, KeepsEverythingBelowThreeSamples) {
  EXPECT_EQ(mad_keep({1.0, 100.0}, 3.5).size(), 2u);
  EXPECT_EQ(mad_keep({1.0}, 3.5).size(), 1u);
}

TEST(MadHelpers, IdenticalSamplesKeepAll) {
  EXPECT_EQ(mad_keep({5.0, 5.0, 5.0, 5.0}, 3.5).size(), 4u);
}

TEST(MadHelpers, DisabledThresholdKeepsAll) {
  EXPECT_EQ(mad_keep({1.0, 2.0, 1000.0}, 0.0).size(), 3u);
}

// --- Watchdog ---

class SlowObjective final : public search::Objective {
 public:
  explicit SlowObjective(double seconds) : seconds_(seconds) {}

  double evaluate(const search::Config& c) override {
    return evaluate_cancellable(c, search::CancelFlag());
  }
  double evaluate_cancellable(const search::Config& c,
                              const search::CancelFlag& cancel) override {
    using clock = std::chrono::steady_clock;
    const auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(seconds_));
    while (clock::now() < deadline) {
      if (cancel.cancelled()) {
        saw_cancel_.store(true);
        throw EvalFailure(EvalOutcome::TimedOut, "cancelled");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return c[0];
  }
  bool thread_safe() const override { return true; }

  bool saw_cancel() const { return saw_cancel_.load(); }

 private:
  double seconds_;
  std::atomic<bool> saw_cancel_{false};
};

TEST(Watchdog, TrivialOptionsRunInline) {
  Watchdog dog;
  EXPECT_TRUE(dog.trivial());
  search::FunctionObjective obj([](const search::Config& c) { return c[0] * 2.0; });
  const auto r = dog.evaluate(obj, {3.0});
  EXPECT_EQ(r.outcome, EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(r.value, 6.0);
  EXPECT_EQ(r.attempts, 1u);
}

TEST(Watchdog, ClassifiesExceptions) {
  Watchdog dog;
  search::FunctionObjective crash(
      [](const search::Config&) -> double { throw std::runtime_error("boom"); });
  EXPECT_EQ(dog.evaluate(crash, {0.0}).outcome, EvalOutcome::Crashed);

  search::FunctionObjective invalid([](const search::Config&) -> double {
    throw std::invalid_argument("bad config");
  });
  EXPECT_EQ(dog.evaluate(invalid, {0.0}).outcome, EvalOutcome::InvalidConfig);

  search::FunctionObjective nonstd([](const search::Config&) -> double { throw 42; });
  const auto r = dog.evaluate(nonstd, {0.0});
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_EQ(r.error, "non-standard exception");

  search::FunctionObjective nan_obj([](const search::Config&) {
    return std::numeric_limits<double>::quiet_NaN();
  });
  EXPECT_EQ(dog.evaluate(nan_obj, {0.0}).outcome, EvalOutcome::NonFinite);
}

TEST(Watchdog, TimesOutAndCancelsHungEvaluation) {
  WatchdogOptions opts;
  opts.timeout_seconds = 0.05;
  Watchdog dog(opts);
  EXPECT_FALSE(dog.trivial());

  SlowObjective slow(30.0);  // would run half a minute without the watchdog
  const auto start = std::chrono::steady_clock::now();
  const auto r = dog.evaluate(slow, {1.0});
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  EXPECT_EQ(r.outcome, EvalOutcome::TimedOut);
  EXPECT_TRUE(std::isnan(r.value));
  EXPECT_LT(waited, 5.0);  // returned at the deadline, not after 30s
  // The cooperative objective notices the cancel shortly after.
  for (int i = 0; i < 100 && !slow.saw_cancel(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(slow.saw_cancel());
}

TEST(Watchdog, FastEvaluationUnaffectedByTimeout) {
  WatchdogOptions opts;
  opts.timeout_seconds = 10.0;
  Watchdog dog(opts);
  search::FunctionObjective obj([](const search::Config& c) { return c[0]; });
  const auto r = dog.evaluate(obj, {7.0});
  EXPECT_EQ(r.outcome, EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(r.value, 7.0);
}

TEST(Watchdog, RetriesTransientCrashes) {
  WatchdogOptions opts;
  opts.max_retries = 3;
  opts.backoff_seconds = 0.001;
  Watchdog dog(opts);

  int calls = 0;
  search::FunctionObjective flaky([&calls](const search::Config& c) -> double {
    if (++calls < 3) throw std::runtime_error("transient");
    return c[0];
  });
  const auto r = dog.evaluate(flaky, {5.0});
  EXPECT_EQ(r.outcome, EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(r.value, 5.0);
  EXPECT_EQ(r.attempts, 3u);
}

TEST(Watchdog, DoesNotRetryInvalidConfig) {
  WatchdogOptions opts;
  opts.max_retries = 5;
  Watchdog dog(opts);
  int calls = 0;
  search::FunctionObjective invalid([&calls](const search::Config&) -> double {
    ++calls;
    throw std::invalid_argument("deterministically invalid");
  });
  const auto r = dog.evaluate(invalid, {0.0});
  EXPECT_EQ(r.outcome, EvalOutcome::InvalidConfig);
  EXPECT_EQ(calls, 1);
}

TEST(Watchdog, RetriesExhaustedStaysCrashed) {
  WatchdogOptions opts;
  opts.max_retries = 2;
  Watchdog dog(opts);
  search::FunctionObjective doomed(
      [](const search::Config&) -> double { throw std::runtime_error("always"); });
  const auto r = dog.evaluate(doomed, {0.0});
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_EQ(r.attempts, 3u);
}

// --- RobustMeasurer ---

TEST(RobustMeasurer, SingleRepeatMatchesBareCall) {
  RobustMeasurer measurer;
  search::FunctionObjective obj([](const search::Config& c) { return c[0] * c[0]; });
  const auto m = measurer.measure(obj, {3.0});
  EXPECT_EQ(m.outcome, EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(m.value, 9.0);
  EXPECT_EQ(m.n_samples, 1u);
  EXPECT_DOUBLE_EQ(m.dispersion, 0.0);
  EXPECT_DOUBLE_EQ(m.stderr_of_mean, 0.0);
}

TEST(RobustMeasurer, TrimsOutlierAndReportsDispersion) {
  MeasureOptions opts;
  opts.repeats = 7;
  RobustMeasurer measurer(opts);

  // Six tight samples and one 10x spike (an OS hiccup).
  const std::vector<double> script = {10.0, 10.2, 9.8, 10.1, 9.9, 100.0, 10.0};
  std::size_t call = 0;
  search::FunctionObjective obj(
      [&](const search::Config&) { return script[call++ % script.size()]; });

  const auto m = measurer.measure(obj, {0.0});
  EXPECT_EQ(m.outcome, EvalOutcome::Ok);
  EXPECT_EQ(m.n_samples, 7u);
  EXPECT_EQ(m.n_ok, 7u);
  EXPECT_EQ(m.n_rejected, 1u);
  // Trimmed mean of the six tight samples, unmoved by the spike.
  EXPECT_NEAR(m.value, 10.0, 0.2);
  EXPECT_GT(m.dispersion, 0.0);
  EXPECT_LT(m.dispersion, 1.0);
  EXPECT_NEAR(m.stderr_of_mean, m.dispersion / std::sqrt(6.0), 1e-12);
}

TEST(RobustMeasurer, ToleratesMinorityFailures) {
  MeasureOptions opts;
  opts.repeats = 5;
  RobustMeasurer measurer(opts);

  std::size_t call = 0;
  search::FunctionObjective obj([&](const search::Config&) -> double {
    if (call++ == 2) throw std::runtime_error("one bad repeat");
    return 4.0;
  });
  const auto m = measurer.measure(obj, {0.0});
  EXPECT_EQ(m.outcome, EvalOutcome::Ok);
  EXPECT_EQ(m.n_ok, 4u);
  EXPECT_DOUBLE_EQ(m.value, 4.0);
}

TEST(RobustMeasurer, AllFailuresReportDominantOutcome) {
  MeasureOptions opts;
  opts.repeats = 5;
  RobustMeasurer measurer(opts);

  std::size_t call = 0;
  search::FunctionObjective obj([&](const search::Config&) -> double {
    if (call++ < 2) return std::numeric_limits<double>::quiet_NaN();
    throw std::runtime_error("crash");
  });
  const auto m = measurer.measure(obj, {0.0});
  EXPECT_EQ(m.outcome, EvalOutcome::Crashed);  // 3 crashes beat 2 NaN
  EXPECT_TRUE(std::isnan(m.value));
  EXPECT_EQ(m.n_ok, 0u);
}

TEST(RobustMeasurer, MinOkEnforced) {
  MeasureOptions opts;
  opts.repeats = 4;
  opts.min_ok = 3;
  RobustMeasurer measurer(opts);

  std::size_t call = 0;
  search::FunctionObjective obj([&](const search::Config&) -> double {
    if (call++ % 2 == 0) throw std::runtime_error("half fail");
    return 1.0;
  });
  const auto m = measurer.measure(obj, {0.0});
  // Only 2 of 4 succeeded < min_ok=3: the measurement as a whole fails.
  EXPECT_EQ(m.outcome, EvalOutcome::Crashed);
}

TEST(RobustMeasurer, InvalidConfigShortCircuitsRepeats) {
  MeasureOptions opts;
  opts.repeats = 6;
  RobustMeasurer measurer(opts);
  int calls = 0;
  search::FunctionObjective obj([&calls](const search::Config&) -> double {
    ++calls;
    throw std::invalid_argument("never valid");
  });
  const auto m = measurer.measure(obj, {0.0});
  EXPECT_EQ(m.outcome, EvalOutcome::InvalidConfig);
  EXPECT_EQ(calls, 1);  // deterministic failure: repeating is waste
}

TEST(RobustMeasurer, RegionsAveragedOverKeptSamples) {
  MeasureOptions opts;
  opts.repeats = 3;
  RobustMeasurer measurer(opts);

  class RegionObj final : public search::RegionObjective {
   public:
    search::RegionTimes evaluate_regions(const search::Config&) override {
      search::RegionTimes t;
      t.regions["a"] = 1.0 + 0.1 * static_cast<double>(call_);
      t.regions["b"] = 2.0;
      t.total = t.regions["a"] + t.regions["b"];
      ++call_;
      return t;
    }

   private:
    int call_ = 0;
  } obj;

  const auto m = measurer.measure_regions(obj, {0.0});
  EXPECT_EQ(m.outcome, EvalOutcome::Ok);
  EXPECT_NEAR(m.regions.regions.at("a"), 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(m.regions.regions.at("b"), 2.0);
  EXPECT_DOUBLE_EQ(m.regions.total, m.value);
  EXPECT_GT(m.region_dispersion.at("a"), 0.0);
  EXPECT_DOUBLE_EQ(m.region_dispersion.at("b"), 0.0);
}

TEST(MeasureOptions, TrivialityDetection) {
  EXPECT_TRUE(is_trivial(MeasureOptions{}));
  MeasureOptions repeats;
  repeats.repeats = 3;
  EXPECT_FALSE(is_trivial(repeats));
  MeasureOptions timeout;
  timeout.watchdog.timeout_seconds = 1.0;
  EXPECT_FALSE(is_trivial(timeout));
  MeasureOptions retries;
  retries.watchdog.max_retries = 2;
  EXPECT_FALSE(is_trivial(retries));
}

// --- Fault injection ---

TEST(FaultyObjective, NoFaultsIsTransparent) {
  search::FunctionObjective inner([](const search::Config& c) { return c[0]; });
  FaultyObjective faulty(inner, FaultOptions{});
  EXPECT_DOUBLE_EQ(faulty.evaluate({3.5}), 3.5);
  EXPECT_EQ(faulty.stats().calls.load(), 1u);
  EXPECT_EQ(faulty.stats().crashes.load(), 0u);
}

TEST(FaultyObjective, InjectsCrashesAtRoughlyTheConfiguredRate) {
  search::FunctionObjective inner([](const search::Config& c) { return c[0]; });
  FaultOptions fopts;
  fopts.crash_prob = 0.3;
  fopts.seed = 7;
  FaultyObjective faulty(inner, fopts);

  std::size_t crashes = 0;
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      faulty.evaluate({static_cast<double>(i)});
    } catch (const std::runtime_error&) {
      ++crashes;
    }
  }
  EXPECT_EQ(faulty.stats().crashes.load(), crashes);
  EXPECT_GT(crashes, n / 5);      // ~300 expected
  EXPECT_LT(crashes, 2 * n / 5);
}

TEST(FaultyObjective, PerConfigModelIsDeterministic) {
  search::FunctionObjective inner([](const search::Config& c) { return c[0]; });
  FaultOptions fopts;
  fopts.crash_prob = 0.5;
  fopts.model = FaultModel::PerConfig;
  fopts.seed = 11;
  FaultyObjective faulty(inner, fopts);

  auto crashes = [&](double x) {
    try {
      faulty.evaluate({x});
      return false;
    } catch (const std::runtime_error&) {
      return true;
    }
  };
  // The same config gets the same fate on every attempt; a fresh decorator
  // with the same seed agrees (restart determinism).
  bool any_crash = false, any_ok = false;
  for (int i = 0; i < 32; ++i) {
    const double x = static_cast<double>(i);
    const bool first = crashes(x);
    EXPECT_EQ(crashes(x), first);
    EXPECT_EQ(crashes(x), first);
    any_crash |= first;
    any_ok |= !first;
  }
  EXPECT_TRUE(any_crash);
  EXPECT_TRUE(any_ok);

  FaultyObjective again(inner, fopts);
  for (int i = 0; i < 32; ++i) {
    const double x = static_cast<double>(i);
    bool a;
    try {
      faulty.evaluate({x});
      a = false;
    } catch (const std::runtime_error&) {
      a = true;
    }
    bool b;
    try {
      again.evaluate({x});
      b = false;
    } catch (const std::runtime_error&) {
      b = true;
    }
    EXPECT_EQ(a, b);
  }
}

TEST(FaultyObjective, HeavyTailNoiseIsMultiplicativeAndPositive) {
  search::FunctionObjective inner([](const search::Config&) { return 10.0; });
  FaultOptions fopts;
  fopts.noise_scale = 0.05;
  fopts.seed = 3;
  FaultyObjective faulty(inner, fopts);

  double lo = 1e300, hi = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double v = faulty.evaluate({static_cast<double>(i)});
    EXPECT_GT(v, 0.0);  // exp-noise keeps timings positive
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, 10.0);  // noise actually moves the value both ways
  EXPECT_GT(hi, 10.0);
}

TEST(FaultyObjective, HangCancelledByWatchdog) {
  search::FunctionObjective inner([](const search::Config&) { return 1.0; });
  FaultOptions fopts;
  fopts.hang_prob = 1.0;
  fopts.hang_seconds = 30.0;
  FaultyObjective faulty(inner, fopts);

  WatchdogOptions wopts;
  wopts.timeout_seconds = 0.05;
  Watchdog dog(wopts);
  const auto start = std::chrono::steady_clock::now();
  const auto r = dog.evaluate(faulty, {0.0});
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(r.outcome, EvalOutcome::TimedOut);
  EXPECT_LT(waited, 5.0);
  EXPECT_EQ(faulty.stats().hangs.load(), 1u);
}

TEST(FaultyObjective, ShortHangWithoutWatchdogProceeds) {
  search::FunctionObjective inner([](const search::Config& c) { return c[0]; });
  FaultOptions fopts;
  fopts.hang_prob = 1.0;
  fopts.hang_seconds = 0.01;  // a straggler, not a true hang
  FaultyObjective faulty(inner, fopts);
  EXPECT_DOUBLE_EQ(faulty.evaluate({2.0}), 2.0);
  EXPECT_EQ(faulty.stats().hangs.load(), 1u);
}

TEST(FaultyApp, InjectsIntoRegionPath) {
  class TinyApp final : public core::TunableApp {
   public:
    const search::SearchSpace& space() const override { return space_; }
    std::vector<core::RoutineSpec> routines() const override {
      return {{"r", {0}}};
    }
    search::RegionTimes evaluate_regions(const search::Config& c) override {
      search::RegionTimes t;
      t.regions["r"] = c[0];
      t.total = c[0];
      return t;
    }
    bool thread_safe() const override { return true; }
    TinyApp() { space_.add(search::ParamSpec::real("x", 1.0, 10.0, 2.0)); }

   private:
    search::SearchSpace space_;
  } app;

  FaultOptions fopts;
  fopts.nan_prob = 1.0;
  FaultyApp faulty(app, fopts);
  EXPECT_EQ(faulty.name(), app.name() + "+faults");
  const auto t = faulty.evaluate_regions({2.0});
  EXPECT_TRUE(std::isnan(t.total));
  EXPECT_EQ(faulty.stats().nans.load(), 1u);
}

}  // namespace
}  // namespace tunekit::robust
