#pragma once
// Evaluation database: every (configuration, objective) pair observed during
// a search, with JSON persistence. This provides the crash-recovery property
// the paper values in GPTune: a search killed mid-way resumes from the
// evaluations already on disk instead of re-running them.

#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "robust/outcome.hpp"
#include "search/space.hpp"

namespace tunekit::common {
class Io;
}

namespace tunekit::search {

struct Evaluation {
  Config config;
  double value = std::numeric_limits<double>::quiet_NaN();
  /// Seconds the evaluation itself took (0 when unknown).
  double cost_seconds = 0.0;
  /// Why the evaluation failed (or Ok). Replaces the old implicit "NaN means
  /// something went wrong" convention: a resumed search or a report can tell
  /// a crash from a timeout from an invalid configuration.
  robust::EvalOutcome outcome = robust::EvalOutcome::Ok;
  /// Robust sigma of the repeated measurement (0 = single measurement).
  double dispersion = 0.0;
  /// Wall-clock milliseconds the whole evaluation round trip took (dispatch
  /// to result, including retries/timeouts) — distinct from cost_seconds,
  /// which is the application-reported runtime. 0 = unknown.
  double duration_ms = 0.0;
  /// Worker-pool slot that ran the evaluation (-1 = in-process or unknown),
  /// so reports can attribute failures to a sick slot.
  int worker_slot = -1;
};

class EvalDb {
 public:
  EvalDb() = default;

  /// Movable (fresh mutex in the destination); not copyable.
  EvalDb(EvalDb&& other) noexcept;
  EvalDb& operator=(EvalDb&& other) noexcept;
  EvalDb(const EvalDb&) = delete;
  EvalDb& operator=(const EvalDb&) = delete;

  /// Thread-safe append. The outcome defaults to a classification of the
  /// value itself (finite -> Ok, otherwise NonFinite).
  void record(Config config, double value, double cost_seconds = 0.0);
  void record(Config config, double value, double cost_seconds,
              robust::EvalOutcome outcome, double dispersion = 0.0);
  /// Full-provenance append (telemetry-era records).
  void record(Evaluation evaluation);

  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Snapshot of all evaluations (copy; safe under concurrent appends).
  std::vector<Evaluation> all() const;

  /// Best (lowest) finite evaluation so far, if any.
  std::optional<Evaluation> best() const;

  /// The k lowest-value evaluations, ascending (non-finite values excluded).
  std::vector<Evaluation> best_k(std::size_t k) const;

  /// Persist to / restore from a JSON checkpoint. The space is used to
  /// validate arity on load; non-conforming entries are rejected with
  /// std::runtime_error. `io` (null = the real filesystem) routes the
  /// checkpoint write through the fault-injection seam.
  void save(const std::string& path, common::Io* io = nullptr) const;
  static EvalDb load(const std::string& path, const SearchSpace& space);
  /// Restore without an arity check, for readers that never decode configs.
  static EvalDb load(const std::string& path);

 private:
  mutable std::mutex mutex_;
  std::vector<Evaluation> evals_;
};

}  // namespace tunekit::search
