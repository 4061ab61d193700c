#include "replay.hpp"

#include "bench.hpp"
#include "bo/bayes_opt.hpp"
#include "bo/gp.hpp"
#include "bo/kernels.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace tkbench {

namespace tk = tunekit;

namespace {

constexpr std::size_t kPredictPoints = 256;

}  // namespace

GpProbe probe_gp(const tk::linalg::Matrix& x, const std::vector<double>& y,
                 std::uint64_t rng_seed, Tracer& tracer) {
  // Every session and search in the workloads runs on the BoOptions defaults.
  const tk::bo::BoOptions bo;
  GpProbe p;
  p.n = x.rows();
  tk::bo::GaussianProcess gp(bo.kernel);
  {
    auto s = tracer.span("bo.hyperopt");
    tk::Rng rng(rng_seed);
    gp.fit_with_hyperopt(x, y, rng, bo.hyperopt_restarts, bo.hyperopt_max_iters);
    s.end();
    p.hyperopt_ms = s.ms();
  }
  {
    auto s = tracer.span("bo.refit");
    gp.fit(x, y);
    s.end();
    p.refit_ms = s.ms();
    p.jitter = gp.last_jitter() > 0.0;
  }
  tk::linalg::Matrix gram;
  {
    auto s = tracer.span("bo.gram");
    gram = tk::bo::kernel_gram(bo.kernel, x, gp.hyperparams());
    s.end();
    p.gram_ms = s.ms();
  }
  {
    auto s = tracer.span("linalg.cholesky");
    tk::linalg::cholesky(gram);
    s.end();
    p.cholesky_ms = s.ms();
  }
  {
    tk::Rng rng(rng_seed ^ 0x9e3779b9ULL);
    std::vector<std::vector<double>> points(kPredictPoints, std::vector<double>(x.cols()));
    for (auto& pt : points) {
      for (auto& c : pt) c = rng.uniform();
    }
    auto s = tracer.span("bo.predict");
    for (const auto& pt : points) gp.predict(pt);
    s.end();
    p.predict_us = s.ms() * 1e3 / static_cast<double>(kPredictPoints);
  }
  return p;
}

void PerLayer::read_bo_histograms(const tk::obs::MetricsRegistry& metrics, double units) {
  for (const auto& [name, h] : metrics.histograms()) {
    if (h->count() == 0) continue;
    const double mean_ms = h->sum() * 1e3 / static_cast<double>(h->count());
    if (name == tk::obs::metric::kGpFitSeconds) fit_ms = mean_ms;
    if (name == tk::obs::metric::kAcqArgmaxSeconds) {
      argmax_ms = mean_ms;
      iterations = units > 0.0 ? static_cast<double>(h->count()) / units : 0.0;
    }
    if (name == tk::obs::metric::kJournalFsyncSeconds) fsync_ms = mean_ms;
  }
}

void PerLayer::emit(Result& r) const {
  double hyperopt = 0.0, refit = 0.0, gram = 0.0, chol = 0.0, predict = 0.0;
  double gflops = 0.0, jitter = 0.0;
  for (const auto& p : gp) {
    hyperopt += p.hyperopt_ms;
    refit += p.refit_ms;
    gram += p.gram_ms;
    chol += p.cholesky_ms;
    predict += p.predict_us;
    const double n = static_cast<double>(p.n);
    if (p.cholesky_ms > 0.0) gflops += n * n * n / 3.0 / (p.cholesky_ms * 1e-3) / 1e9;
    jitter += p.jitter ? 1.0 : 0.0;
  }
  const double k = gp.empty() ? 1.0 : static_cast<double>(gp.size());
  r.metric("bo.hyperopt_ms", hyperopt / k, "ms");
  r.metric("bo.refit_ms", refit / k, "ms");
  r.metric("bo.lml_evals", refit > 0.0 ? hyperopt / refit : 0.0, "count");
  r.metric("bo.gram_ms", gram / k, "ms");
  r.metric("linalg.cholesky_ms", chol / k, "ms");
  r.metric("linalg.cholesky_gflops", gflops / k, "GFLOP/s");
  r.metric("bo.jitter_share", jitter / k, "fraction");
  r.metric("bo.predict_us", predict / k, "us");
  r.samples("bo.hyperopt_ms", gp.size());
  r.metric("bo.suggest_ms", suggest_ms, "ms");
  r.metric("service.ask_self_ms", ask_self_ms, "ms");
  r.metric("bo.argmax_ms", argmax_ms, "ms");
  r.metric("bo.fit_ms", fit_ms, "ms");
  r.metric("bo.iterations", iterations, "count");
  r.metric("core.analyze_ms", analyze_ms, "ms");
  r.metric("stats.sensitivity_evals", sensitivity_evals, "count");
  r.metric("graph.plan_ms", plan_ms, "ms");
  r.metric("core.execute_ms", execute_ms, "ms");
  r.metric("eval.ms", eval_ms, "ms");
  r.metric("service.fsync_ms", fsync_ms, "ms");
  r.metric("net.handle_us", handle_us, "us");
  r.metric("net.server_us", server_us, "us");
  r.metric("service.manager_ask_us", manager_ask_us, "us");
  r.metric("service.manager_tell_us", manager_tell_us, "us");
  r.metric("obs.trace_overhead_pct", trace_overhead_pct, "%");
}

}  // namespace tkbench
