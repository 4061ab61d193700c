#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace tkbench {

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p < 1.0)) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double pos = static_cast<double>(n - 1) * p;
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  if (n - 1 - lo < 10) return std::nullopt;
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of an empty set");
  double log_sum = 0.0;
  for (double v : values) {
    if (!std::isfinite(v) || v <= 0.0) {
      throw std::invalid_argument("geomean needs finite positive values");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty set");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (k + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z & 0x7fffffffULL;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void Result::absorb(const Result& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& r : other.reasons_) {
    if (reasons_.size() < 8) reasons_.push_back(r);
  }
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail(name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Result::percentile_metric(const std::string& name, const std::vector<double>& samples,
                               double p) {
  const auto value = percentile(samples, p);
  samples_[name] = samples.size();
  if (!value) {
    fail(name + ": too few samples (" + std::to_string(samples.size()) + ")");
    metric(name, 0.0, "ms");
    return;
  }
  metric(name, *value, "ms");
}

void Result::samples(const std::string& name, std::size_t n) { samples_[name] = n; }

json::Value Result::record_json(const Args& args) const {
  json::Object out = record_;
  out["workload"] = json::Value(args.workload);
  out["seed"] = json::Value(static_cast<double>(args.seed));
  out["seconds"] = json::Value(args.seconds);
  out["trace"] = json::Value(args.trace);
  out["toy"] = json::Value(args.toy);
  out["build_type"] = json::Value(TKBENCH_BUILD_TYPE);
  out["correct"] = json::Value(correct());
  out["attempted"] = json::Value(attempted_);
  out["failed"] = json::Value(failed_);
  json::Array reasons;
  for (const auto& r : reasons_) reasons.emplace_back(r);
  out["failures"] = json::Value(std::move(reasons));
  out["metrics"] = json::Value(metrics_json(true));
  return json::Value(std::move(out));
}

std::string Result::final_line() const {
  json::Object out;
  out["correct"] = json::Value(correct());
  out["attempted"] = json::Value(attempted_);
  out["failed"] = json::Value(failed_);
  out["metrics"] = json::Value(metrics_json(false));
  return json::Value(std::move(out)).dump();
}

json::Object Result::metrics_json(bool with_samples) const {
  json::Object metrics;
  for (const auto& [name, vu] : metrics_) {
    json::Object m;
    m["value"] = json::Value(vu.first);
    m["unit"] = json::Value(vu.second);
    if (auto it = samples_.find(name); with_samples && it != samples_.end()) {
      m["samples"] = json::Value(it->second);
    }
    metrics[name] = json::Value(std::move(m));
  }
  return metrics;
}

}  // namespace tkbench
