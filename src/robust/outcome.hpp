#pragma once
// Failure taxonomy for hardened evaluations.
//
// The seed code used an implicit convention: a NaN objective value means
// "something went wrong". Real HPC evaluations fail in distinguishable ways —
// the binary crashed, the run hung past its deadline, the configuration was
// rejected before launch, or the measurement came back non-finite — and the
// tuner reacts differently to each (retry a transient crash, never retry an
// invalid configuration, stop waiting on a hang). EvalOutcome makes the
// distinction explicit; it is recorded in EvalDb entries and session journals
// so resumes and reports know *why* a point failed, not just that it did.
//
// This header is standalone (no tunekit dependencies) so every layer — search,
// bo, service, core — can record outcomes without cycles.

#include <stdexcept>
#include <string>

namespace tunekit::robust {

enum class EvalOutcome {
  Ok,             ///< Finite measurement obtained.
  Crashed,        ///< The evaluation threw / the application aborted.
  TimedOut,       ///< The watchdog deadline expired before completion.
  InvalidConfig,  ///< The configuration was rejected before/at launch.
  NonFinite,      ///< The evaluation returned NaN or ±inf.
};

const char* to_string(EvalOutcome outcome);

/// Inverse of to_string. Throws std::invalid_argument on unknown names.
EvalOutcome outcome_from_string(const std::string& name);

/// Everything except Ok.
bool is_failure(EvalOutcome outcome);

/// Ok for finite values, NonFinite otherwise — the classification of a bare
/// objective return value with no further context.
EvalOutcome classify_value(double value);

/// Exception that carries a classified failure out of an objective (thrown by
/// the WorkerPool-backed sandboxed objectives and by FaultyObjective) into a
/// driver that only understands exceptions, so the driver can record the
/// precise outcome instead of a generic crash.
class EvalFailure : public std::runtime_error {
 public:
  EvalFailure(EvalOutcome outcome, const std::string& what)
      : std::runtime_error(what), outcome_(outcome) {}

  EvalOutcome outcome() const { return outcome_; }

 private:
  EvalOutcome outcome_;
};

}  // namespace tunekit::robust
