#pragma once
// Shared pieces of tkbench: command-line arguments, the result
// every workload fills in, and the statistics its metrics rest on.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace tkbench {

namespace json = tunekit::json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  /// Minimum measured time; workloads finish their current unit of work.
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the self-test smoke runs: same code paths, seconds long.
  bool toy = false;
  /// Result record, spans and session journals go here.
  std::string out_dir = ".bench_out";
};

/// Percentile p in (0, 1) by linear interpolation between order statistics
/// (position (n-1)p). Refuses — nullopt — when fewer than 10 samples lie
/// beyond that position, so a tail is never read off a handful of points.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Geometric mean; throws std::invalid_argument on an empty set or a value
/// that is not finite and positive.
double geomean(const std::vector<double>& values);

/// Plain median, for the few set-up repeats a run makes (no tail rule).
double median(std::vector<double> values);

double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MB. Workloads read it when
/// their timed loop ends, before post-processing allocates.
double peak_rss_mb();

/// Stream k of a workload seed (SplitMix64 finalizer), below 2^31 so it
/// survives a JSON round trip and every seed field in the library.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// Steady-clock milliseconds since an arbitrary epoch.
double now_ms();

/// What one run reports: the output-check tally, the metrics, and the record
/// of provenance, configuration and sample counts written next to the spans.
class Result {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// One failed operation or output check. The first reasons are kept.
  void fail(const std::string& why);
  /// Add another tally (a client thread's) to this one.
  void absorb(const Result& other);

  void metric(const std::string& name, double value, const std::string& unit);
  /// A percentile of `samples` (ms). A refused percentile fails the run.
  void percentile_metric(const std::string& name, const std::vector<double>& samples,
                         double p);
  /// Sample count behind a metric, recorded beside it.
  void samples(const std::string& name, std::size_t n);

  bool correct() const { return failed_ == 0; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  /// Free-form record fields (workload configuration, extra figures).
  json::Object& record() { return record_; }
  /// The full record: provenance, tally, metrics with sample counts.
  json::Value record_json(const Args& args) const;
  /// The last stdout line: {"correct","attempted","failed","metrics"}.
  std::string final_line() const;

 private:
  json::Object metrics_json(bool with_samples) const;

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> reasons_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::size_t> samples_;
  json::Object record_;
};

}  // namespace tkbench
