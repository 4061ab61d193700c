#pragma once
// The three closed-loop workloads. Each fills `result` with its output-check
// tally and either every end-to-end metric (untraced) or every per-layer
// metric (traced), and writes its spans through `tracer`.

#include "bench.hpp"
#include "tracer.hpp"

namespace tkbench {

/// Methodology::run on RT-TDDFT CS1 and CS2 over a fixed list of seeds.
void run_campaign(const Args& args, Tracer& tracer, Result& result);

/// One journaled TuningSession over the 10-dim Group3+Group4 subspace of
/// synthetic Case 5, loaded with 100 observations, then ask/evaluate/tell.
void run_session_d10(const Args& args, Tracer& tracer, Result& result);

/// Four HTTP clients churning short random-backend sessions through an
/// in-process HttpServer + RestApi + SessionManager.
void run_serve_churn(const Args& args, Tracer& tracer, Result& result);

/// Set-up repeats per run; setup_s is their median.
inline constexpr int kSetupRepeats = 7;

}  // namespace tkbench
