#pragma once
// Robust repeated measurement (Gramacy & Taddy: variable-selection scores
// computed from noisy code timings need replication to be trustworthy).
//
// RobustMeasurer takes `repeats` watchdog-guarded measurements of one
// configuration, rejects outliers by median-absolute-deviation, and returns
// the trimmed mean together with a robust dispersion estimate
// (1.4826 · MAD ≈ σ under Gaussian noise) — giving BO and the Phase-1
// influence analysis variance-aware observations instead of a single draw
// that one OS hiccup can ruin.
//
// A measurement is Ok when at least `min_ok` of the repeats succeeded; the
// failed repeats are tolerated (a flaky run should not discard its siblings).
// When every repeat fails, the outcome reported is the failure kind observed
// most often, so the EvalDb/journal records *why* the point failed.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "robust/outcome.hpp"
#include "robust/watchdog.hpp"
#include "search/objective.hpp"

namespace tunekit::robust {

struct MeasureOptions {
  /// Measurements per configuration (1 = single measurement, seed behavior).
  std::size_t repeats = 1;
  /// Samples farther than this many (scaled) MADs from the median are
  /// rejected before averaging; <= 0 disables outlier rejection.
  double mad_threshold = 3.5;
  /// Successful repeats required for an Ok outcome (clamped to repeats).
  std::size_t min_ok = 1;
  /// Per-measurement deadline and transient-crash retry policy.
  WatchdogOptions watchdog;
};

/// True when the options reduce to one bare objective call.
bool is_trivial(const MeasureOptions& options);

struct Measurement {
  EvalOutcome outcome = EvalOutcome::Crashed;
  /// MAD-trimmed mean of the successful samples; NaN unless outcome == Ok.
  double value = std::numeric_limits<double>::quiet_NaN();
  /// Robust sigma (1.4826 · MAD) of the kept samples; 0 for a single sample.
  double dispersion = 0.0;
  /// Standard error of `value` (dispersion / sqrt(kept samples)).
  double stderr_of_mean = 0.0;
  /// Region-time estimates (region measurement path) and their dispersions.
  search::RegionTimes regions;
  std::map<std::string, double> region_dispersion;

  std::size_t n_samples = 0;   ///< Repeats attempted.
  std::size_t n_ok = 0;        ///< Repeats that produced a finite value.
  std::size_t n_rejected = 0;  ///< Ok samples discarded as outliers.
  /// Total wall-clock seconds across every repeat and retry.
  double seconds = 0.0;
  /// Error message of the last failed repeat (empty if none failed).
  std::string error;

  std::size_t n_kept() const { return n_ok - n_rejected; }
};

/// Median of a sample set (empty -> NaN).
double median_of(std::vector<double> values);
/// Median absolute deviation around `center`.
double mad_of(const std::vector<double>& values, double center);
/// Indices of the samples kept by the MAD rule (threshold <= 0 keeps all).
std::vector<std::size_t> mad_keep(const std::vector<double>& values, double threshold);

class RobustMeasurer {
 public:
  explicit RobustMeasurer(MeasureOptions options = {});

  const MeasureOptions& options() const { return options_; }

  Measurement measure(search::Objective& objective, const search::Config& config) const;
  Measurement measure_regions(search::RegionObjective& objective,
                              const search::Config& config) const;

 private:
  Measurement combine(std::vector<GuardedEval> evals) const;

  MeasureOptions options_;
};

}  // namespace tunekit::robust
