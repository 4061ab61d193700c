#include "robust/measure.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"

namespace tunekit::robust {

namespace {

/// 1.4826 scales the MAD to the standard deviation under Gaussian noise.
constexpr double kMadToSigma = 1.4826;

double mean_of(const std::vector<double>& v) { return stats::mean(v); }

}  // namespace

bool is_trivial(const MeasureOptions& options) {
  return options.repeats <= 1 && Watchdog(options.watchdog).trivial();
}

double median_of(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  return stats::median(std::move(values));
}

double mad_of(const std::vector<double>& values, double center) {
  std::vector<double> dev;
  dev.reserve(values.size());
  for (double v : values) dev.push_back(std::abs(v - center));
  return median_of(std::move(dev));
}

std::vector<std::size_t> mad_keep(const std::vector<double>& values, double threshold) {
  std::vector<std::size_t> keep;
  keep.reserve(values.size());
  if (threshold <= 0.0 || values.size() < 3) {
    // With fewer than 3 samples the MAD cannot distinguish signal from
    // outlier; keep everything.
    for (std::size_t i = 0; i < values.size(); ++i) keep.push_back(i);
    return keep;
  }
  const double med = median_of(values);
  const double mad = mad_of(values, med);
  if (mad == 0.0) {
    // Degenerate spread (e.g. identical samples): nothing is an outlier.
    for (std::size_t i = 0; i < values.size(); ++i) keep.push_back(i);
    return keep;
  }
  const double limit = threshold * kMadToSigma * mad;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::abs(values[i] - med) <= limit) keep.push_back(i);
  }
  return keep;
}

RobustMeasurer::RobustMeasurer(MeasureOptions options) : options_(options) {
  if (options_.repeats == 0) options_.repeats = 1;
}

Measurement RobustMeasurer::combine(std::vector<GuardedEval> evals) const {
  Measurement m;
  m.n_samples = evals.size();
  std::vector<std::size_t> ok_idx;
  std::map<EvalOutcome, std::size_t> failure_counts;
  EvalOutcome dominant_failure = EvalOutcome::Crashed;
  std::size_t dominant_count = 0;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    m.seconds += evals[i].seconds;
    if (evals[i].outcome == EvalOutcome::Ok) {
      ok_idx.push_back(i);
    } else {
      m.error = evals[i].error;
      const std::size_t n = ++failure_counts[evals[i].outcome];
      if (n >= dominant_count) {
        dominant_count = n;
        dominant_failure = evals[i].outcome;
      }
    }
  }
  m.n_ok = ok_idx.size();

  const std::size_t min_ok =
      std::clamp<std::size_t>(options_.min_ok, 1, options_.repeats);
  if (m.n_ok < min_ok) {
    m.outcome = dominant_failure;
    return m;
  }

  std::vector<double> totals;
  totals.reserve(ok_idx.size());
  for (std::size_t i : ok_idx) totals.push_back(evals[i].regions.total);
  const auto keep = mad_keep(totals, options_.mad_threshold);
  m.n_rejected = totals.size() - keep.size();

  std::vector<double> kept;
  kept.reserve(keep.size());
  for (std::size_t k : keep) kept.push_back(totals[k]);
  m.value = mean_of(kept);
  m.dispersion = kept.size() > 1 ? kMadToSigma * mad_of(kept, median_of(kept)) : 0.0;
  m.stderr_of_mean =
      kept.empty() ? 0.0 : m.dispersion / std::sqrt(static_cast<double>(kept.size()));
  m.outcome = EvalOutcome::Ok;

  // Per-region trimmed estimates over the same kept sample set, so region
  // and total estimates stay consistent.
  std::map<std::string, std::vector<double>> per_region;
  for (std::size_t k : keep) {
    for (const auto& [name, value] : evals[ok_idx[k]].regions.regions) {
      per_region[name].push_back(value);
    }
  }
  for (auto& [name, samples] : per_region) {
    m.regions.regions[name] = mean_of(samples);
    m.region_dispersion[name] =
        samples.size() > 1 ? kMadToSigma * mad_of(samples, median_of(samples)) : 0.0;
  }
  m.regions.total = m.value;
  return m;
}

Measurement RobustMeasurer::measure(search::Objective& objective,
                                    const search::Config& config) const {
  const Watchdog watchdog(options_.watchdog);
  std::vector<GuardedEval> evals;
  evals.reserve(options_.repeats);
  for (std::size_t r = 0; r < options_.repeats; ++r) {
    evals.push_back(watchdog.evaluate(objective, config));
    // An invalid configuration is deterministic; repeating it is waste.
    if (evals.back().outcome == EvalOutcome::InvalidConfig) break;
  }
  return combine(std::move(evals));
}

Measurement RobustMeasurer::measure_regions(search::RegionObjective& objective,
                                            const search::Config& config) const {
  const Watchdog watchdog(options_.watchdog);
  std::vector<GuardedEval> evals;
  evals.reserve(options_.repeats);
  for (std::size_t r = 0; r < options_.repeats; ++r) {
    evals.push_back(watchdog.evaluate_regions(objective, config));
    if (evals.back().outcome == EvalOutcome::InvalidConfig) break;
  }
  return combine(std::move(evals));
}

}  // namespace tunekit::robust
