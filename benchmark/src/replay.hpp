#pragma once
// Per-layer figures for the traced run.
//
// The GP fit inside suggest_batch is reached only through another call, so
// the traced run replays the surrogate's public functions on the same
// training data the workload's ask (or search) saw: the hyperparameter search
// with the session's kernel, restarts, iteration cap and RNG seed, one refit
// at the hyperparameters it found, the Gram matrix, its Cholesky factor, and
// single-point predictions.
//
// PerLayer holds every per-layer metric. A workload fills the layers it
// reaches; a layer it never calls stays 0.

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "tracer.hpp"

namespace tunekit::obs {
class MetricsRegistry;
}

namespace tkbench {

class Result;

struct GpProbe {
  std::size_t n = 0;
  double hyperopt_ms = 0.0;
  double refit_ms = 0.0;
  double gram_ms = 0.0;
  double cholesky_ms = 0.0;
  double predict_us = 0.0;
  bool jitter = false;
};

/// Replay the surrogate layers on (x, y); spans bo.hyperopt, bo.refit,
/// bo.gram, linalg.cholesky and bo.predict under the caller's open span.
GpProbe probe_gp(const tunekit::linalg::Matrix& x, const std::vector<double>& y,
                 std::uint64_t rng_seed, Tracer& tracer);

struct PerLayer {
  std::vector<GpProbe> gp;
  double suggest_ms = 0.0;
  double ask_self_ms = 0.0;
  double argmax_ms = 0.0;
  double fit_ms = 0.0;
  double iterations = 0.0;
  double analyze_ms = 0.0;
  double sensitivity_evals = 0.0;
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  double eval_ms = 0.0;
  double fsync_ms = 0.0;
  double handle_us = 0.0;
  double server_us = 0.0;
  double manager_ask_us = 0.0;
  double manager_tell_us = 0.0;
  double trace_overhead_pct = 0.0;

  /// bo.fit_ms and bo.argmax_ms: means of the library's own
  /// tunekit_gp_fit_seconds / tunekit_acq_argmax_seconds histograms.
  /// `units` divides the argmax count into bo.iterations per unit of work.
  void read_bo_histograms(const tunekit::obs::MetricsRegistry& metrics, double units);

  /// Every per-layer metric, 0 for layers the workload does not reach.
  void emit(Result& result) const;
};

}  // namespace tkbench
