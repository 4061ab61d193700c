#pragma once
// Sensitivity analysis (paper §IV-B / §IV-C).
//
// One baseline configuration is evaluated, then V individual variations are
// applied to each parameter *in isolation*. The average relative runtime
// variability per (parameter, region)
//
//     s(p, r) = 1/V * Σ_i |(t_base(r) − t_i(r)) / t_base(r)|
//
// is the influence score. Running this against per-routine timings (not just
// the total) is the paper's trick for inferring routine interdependence with
// only O(V·D) observations instead of a full orthogonality analysis.
//
// Two variation modes are supported, matching the paper's two uses:
//  * MultiplicativeLadder — each variation multiplies the previous value by
//    `ladder_factor` (the synthetic-function study: 100 steps of +10%).
//  * ExpertValues — explicit per-parameter variation values (the RT-TDDFT
//    study: 5 expert-suggested variations per parameter).
// Discrete parameters under the ladder walk their level list instead, since
// multiplying a categorical id is meaningless.

#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "robust/measure.hpp"
#include "robust/worker_pool.hpp"
#include "search/objective.hpp"
#include "search/space.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::stats {

enum class VariationMode { MultiplicativeLadder, ExpertValues };

struct SensitivityOptions {
  VariationMode mode = VariationMode::MultiplicativeLadder;
  /// V: variations per parameter.
  std::size_t n_variations = 5;
  /// Ladder multiplier (1.10 = +10% per step, as in the paper).
  double ladder_factor = 1.10;
  /// Expert-suggested variation values per parameter name (ExpertValues
  /// mode). Parameters missing from the map fall back to the ladder.
  std::map<std::string, std::vector<double>> expert_values;
  /// Invalid variations (constraint violations) are skipped; if every
  /// variation of a parameter is invalid its variability is 0.
  bool skip_invalid = true;

  /// Hardened measurement per observation: the baseline is re-measured
  /// `measure.repeats` times (it anchors every score, so it deserves the most
  /// trustworthy estimate), each variation likewise, and the repeat
  /// dispersion propagates into a per-score standard error. Failed variation
  /// measurements are skipped and counted instead of aborting the analysis.
  /// Defaults reproduce the seed behavior (one bare call per observation).
  robust::MeasureOptions measure;

  /// IsolationMode::Process routes every observation to a sandboxed worker
  /// process (the in-process watchdog deadline then becomes the worker's
  /// SIGKILL deadline). Defaults to Thread — the in-process path.
  robust::IsolationOptions isolation;

  /// Spans ("eval" per baseline/variation measurement) and evaluation
  /// counters (null = disabled, the default).
  obs::Telemetry* telemetry = nullptr;
};

struct SensitivityEntry {
  std::size_t param_index = 0;
  std::string param_name;
  /// Mean relative variability, as a fraction (0.94 == 94%).
  double variability = 0.0;
};

class SensitivityReport {
 public:
  SensitivityReport(std::vector<std::string> regions, std::vector<std::string> params);

  const std::vector<std::string>& regions() const { return regions_; }
  const std::vector<std::string>& param_names() const { return params_; }

  /// Variability score for (region, param) as a fraction.
  double score(const std::string& region, std::size_t param_index) const;
  void set_score(const std::string& region, std::size_t param_index, double value);

  /// Standard error of the score, propagated from the repeat dispersions of
  /// the baseline and variation measurements; 0 when measured once.
  double score_stderr(const std::string& region, std::size_t param_index) const;
  void set_score_stderr(const std::string& region, std::size_t param_index, double value);

  /// Lower confidence bound max(0, score - z * stderr): the influence the
  /// data still supports after measurement noise is discounted. With single
  /// measurements (stderr 0) this is the score itself.
  double lower_bound(const std::string& region, std::size_t param_index, double z) const;

  /// Top-k parameters by variability for one region (descending) — the
  /// paper's Tables II, V, VI rows.
  std::vector<SensitivityEntry> top(const std::string& region, std::size_t k) const;

  /// Total objective evaluations consumed by the analysis (every repeat and
  /// retry counts).
  std::size_t observations = 0;
  /// Variation measurements that failed (crash/timeout/non-finite) and were
  /// skipped; their scores average over the surviving variations only.
  std::size_t failed_observations = 0;

 private:
  std::size_t region_index(const std::string& region) const;

  std::vector<std::string> regions_;
  std::vector<std::string> params_;
  linalg::Matrix scores_;   // regions x params
  linalg::Matrix stderrs_;  // regions x params
};

class SensitivityAnalyzer {
 public:
  explicit SensitivityAnalyzer(SensitivityOptions options = {}) : options_(options) {}

  /// Analyze a region-reporting objective around the given baseline.
  /// Throws std::invalid_argument if the baseline is invalid or a baseline
  /// region time is zero (variability undefined).
  SensitivityReport analyze(search::RegionObjective& objective,
                            const search::SearchSpace& space,
                            const search::Config& baseline) const;

  /// The variation values that would be tested for parameter `i` from the
  /// given baseline value (exposed for tests and for reporting).
  std::vector<double> variation_values(const search::ParamSpec& spec,
                                       double baseline_value) const;

 private:
  SensitivityOptions options_;
};

}  // namespace tunekit::stats
