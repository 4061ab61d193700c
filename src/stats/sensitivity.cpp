#include "stats/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/log.hpp"
#include "obs/telemetry.hpp"

namespace tunekit::stats {

namespace {

/// One instrumented observation: an "eval" span plus started/outcome counters
/// and the eval-seconds histogram. No-op when telemetry is null/disabled.
robust::Measurement measure_observation(const robust::RobustMeasurer& measurer,
                                        search::RegionObjective& objective,
                                        const search::Config& config,
                                        obs::Telemetry* telemetry) {
  obs::ScopedSpan eval_span(telemetry, "eval");
  const bool traced = telemetry != nullptr && telemetry->enabled();
  if (traced) telemetry->metrics().counter(obs::metric::kEvalsStarted).inc();
  robust::Measurement m = measurer.measure_regions(objective, config);
  eval_span.end();
  if (traced) {
    obs::outcome_counter(telemetry->metrics(), robust::to_string(m.outcome)).inc();
    telemetry->metrics()
        .histogram(obs::metric::kEvalSeconds, obs::default_time_buckets())
        .observe(m.seconds);
  }
  return m;
}

}  // namespace

SensitivityReport::SensitivityReport(std::vector<std::string> regions,
                                     std::vector<std::string> params)
    : regions_(std::move(regions)),
      params_(std::move(params)),
      scores_(regions_.size(), params_.size(), 0.0),
      stderrs_(regions_.size(), params_.size(), 0.0) {}

std::size_t SensitivityReport::region_index(const std::string& region) const {
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i] == region) return i;
  }
  throw std::out_of_range("SensitivityReport: unknown region '" + region + "'");
}

double SensitivityReport::score(const std::string& region, std::size_t param_index) const {
  return scores_.at(region_index(region), param_index);
}

void SensitivityReport::set_score(const std::string& region, std::size_t param_index,
                                  double value) {
  scores_.at(region_index(region), param_index) = value;
}

double SensitivityReport::score_stderr(const std::string& region,
                                       std::size_t param_index) const {
  return stderrs_.at(region_index(region), param_index);
}

void SensitivityReport::set_score_stderr(const std::string& region,
                                         std::size_t param_index, double value) {
  stderrs_.at(region_index(region), param_index) = value;
}

double SensitivityReport::lower_bound(const std::string& region,
                                      std::size_t param_index, double z) const {
  const std::size_t r = region_index(region);
  return std::max(0.0, scores_.at(r, param_index) - z * stderrs_.at(r, param_index));
}

std::vector<SensitivityEntry> SensitivityReport::top(const std::string& region,
                                                     std::size_t k) const {
  const std::size_t r = region_index(region);
  std::vector<SensitivityEntry> entries;
  entries.reserve(params_.size());
  for (std::size_t p = 0; p < params_.size(); ++p) {
    entries.push_back({p, params_[p], scores_(r, p)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const SensitivityEntry& a, const SensitivityEntry& b) {
              return a.variability > b.variability;
            });
  if (entries.size() > k) entries.resize(k);
  return entries;
}

std::vector<double> SensitivityAnalyzer::variation_values(const search::ParamSpec& spec,
                                                          double baseline_value) const {
  // Expert-provided values take precedence when present.
  if (options_.mode == VariationMode::ExpertValues) {
    auto it = options_.expert_values.find(spec.name());
    if (it != options_.expert_values.end()) {
      std::vector<double> vals;
      for (double v : it->second) {
        const double s = spec.snap(v);
        if (s != baseline_value) vals.push_back(s);
      }
      return vals;
    }
  }

  const std::size_t v_count = std::max<std::size_t>(1, options_.n_variations);
  std::vector<double> vals;
  vals.reserve(v_count);

  if (spec.cardinality() != 0 && spec.kind() != search::ParamKind::Integer) {
    // Ordinal / categorical: walk the level list, evenly spread, skipping
    // the baseline level.
    const auto& levels = spec.levels();
    std::vector<double> pool;
    for (double l : levels) {
      if (l != baseline_value) pool.push_back(l);
    }
    if (pool.empty()) return vals;
    if (pool.size() <= v_count) return pool;
    for (std::size_t k = 0; k < v_count; ++k) {
      const std::size_t idx = k * (pool.size() - 1) / (v_count > 1 ? v_count - 1 : 1);
      vals.push_back(pool[idx]);
    }
    // Deduplicate while keeping order.
    std::vector<double> dedup;
    for (double v : vals) {
      if (std::find(dedup.begin(), dedup.end(), v) == dedup.end()) dedup.push_back(v);
    }
    return dedup;
  }

  // Real / Integer: multiplicative ladder off the baseline. If the baseline
  // is (near) zero the ladder degenerates, so fall back to a span walk.
  const double eps = 1e-12 * std::max(1.0, std::abs(spec.hi() - spec.lo()));
  if (std::abs(baseline_value) < eps) {
    for (std::size_t k = 1; k <= v_count; ++k) {
      const double frac = static_cast<double>(k) / static_cast<double>(v_count + 1);
      const double v = spec.snap(spec.lo() + frac * (spec.hi() - spec.lo()));
      if (v != baseline_value) vals.push_back(v);
    }
  } else {
    double v = baseline_value;
    for (std::size_t k = 0; k < v_count; ++k) {
      v *= options_.ladder_factor;
      const double snapped = spec.snap(v);
      if (snapped != baseline_value &&
          (vals.empty() || snapped != vals.back())) {
        vals.push_back(snapped);
      }
    }
  }
  return vals;
}

SensitivityReport SensitivityAnalyzer::analyze(search::RegionObjective& objective,
                                               const search::SearchSpace& space,
                                               const search::Config& baseline) const {
  if (!space.is_valid(baseline)) {
    throw std::invalid_argument("SensitivityAnalyzer: baseline configuration is invalid");
  }
  // Process isolation: observations run in sandboxed worker processes, where
  // the pool's SIGKILL deadline replaces the in-process watchdog (the
  // analysis itself is sequential, so one worker suffices).
  robust::MeasureOptions measure = options_.measure;
  robust::IsolationOptions isolation = options_.isolation;
  if (isolation.telemetry == nullptr) isolation.telemetry = options_.telemetry;
  std::unique_ptr<robust::SandboxedRegionObjective> sandboxed;
  if (auto pool = robust::WorkerPool::create(isolation, 1)) {
    sandboxed = std::make_unique<robust::SandboxedRegionObjective>(
        pool, measure.watchdog.timeout_seconds);
    measure.watchdog.timeout_seconds = std::numeric_limits<double>::infinity();
  }
  search::RegionObjective& measured = sandboxed ? *sandboxed : objective;

  // The baseline anchors every score in the analysis, so it gets the full
  // robust treatment: watchdog, repeats, outlier rejection. If even the
  // re-measured baseline fails there is nothing to normalize against.
  const robust::RobustMeasurer measurer(measure);
  const robust::Measurement base_m =
      measure_observation(measurer, measured, baseline, options_.telemetry);
  if (base_m.outcome != robust::EvalOutcome::Ok) {
    throw std::invalid_argument(
        std::string("SensitivityAnalyzer: baseline measurement failed as ") +
        robust::to_string(base_m.outcome) +
        (base_m.error.empty() ? "" : (": " + base_m.error)));
  }
  const search::RegionTimes& base = base_m.regions;

  std::vector<std::string> regions;
  regions.reserve(base.regions.size() + 1);
  for (const auto& [name, _] : base.regions) regions.push_back(name);
  regions.push_back("total");

  std::vector<std::string> param_names;
  param_names.reserve(space.size());
  for (const auto& p : space.params()) param_names.push_back(p.name());

  SensitivityReport report(regions, param_names);
  report.observations = base_m.n_samples;

  auto base_time = [&](const std::string& region) {
    return region == "total" ? base.total : base.regions.at(region);
  };
  for (const auto& r : regions) {
    if (base_time(r) == 0.0) {
      throw std::invalid_argument("SensitivityAnalyzer: baseline time for region '" + r +
                                  "' is zero; variability undefined");
    }
  }

  // Standard error of a region's measured mean (0 when measured once).
  auto sigma_of = [](const robust::Measurement& m, const std::string& r) {
    if (r == "total") return m.stderr_of_mean;
    auto it = m.region_dispersion.find(r);
    if (it == m.region_dispersion.end()) return 0.0;
    const auto n = static_cast<double>(std::max<std::size_t>(1, m.n_kept()));
    return it->second / std::sqrt(n);
  };

  for (std::size_t p = 0; p < space.size(); ++p) {
    const auto values = variation_values(space.param(p), baseline[p]);
    std::map<std::string, double> acc;
    std::map<std::string, double> var_acc;
    std::size_t used = 0;
    for (double v : values) {
      search::Config varied = baseline;
      varied[p] = v;
      if (!space.is_valid(varied)) {
        if (options_.skip_invalid) continue;
        throw std::runtime_error("SensitivityAnalyzer: invalid variation for '" +
                                 space.param(p).name() + "'");
      }
      const robust::Measurement m =
          measure_observation(measurer, measured, varied, options_.telemetry);
      report.observations += m.n_samples;
      if (m.outcome != robust::EvalOutcome::Ok) {
        // A failed variation is data lost, not an analysis abort: the score
        // averages over the variations that survived.
        ++report.failed_observations;
        log_warn("sensitivity: variation of '", space.param(p).name(), "' failed as ",
                 robust::to_string(m.outcome), "; skipping");
        continue;
      }
      const search::RegionTimes& t = m.regions;
      ++used;
      for (const auto& r : regions) {
        const double tb = base_time(r);
        const double tr = r == "total" ? t.total : t.regions.at(r);
        acc[r] += std::abs((tb - tr) / tb);
        // First-order error propagation of d = (tb - tr)/tb through both
        // measured means: var(d) = (s_r^2 + s_b^2 (tr/tb)^2) / tb^2. The
        // shared baseline makes terms weakly correlated; ignoring that keeps
        // the estimate simple and slightly conservative per-term.
        const double sr = sigma_of(m, r);
        const double sb = sigma_of(base_m, r);
        const double ratio = tr / tb;
        var_acc[r] += (sr * sr + sb * sb * ratio * ratio) / (tb * tb);
      }
    }
    if (used == 0) {
      log_debug("sensitivity: no valid variations for parameter ",
                space.param(p).name());
      continue;
    }
    for (const auto& r : regions) {
      report.set_score(r, p, acc[r] / static_cast<double>(used));
      report.set_score_stderr(r, p,
                              std::sqrt(var_acc[r]) / static_cast<double>(used));
    }
  }
  return report;
}

}  // namespace tunekit::stats
