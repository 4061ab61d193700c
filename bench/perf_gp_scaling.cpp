// google-benchmark: the O(N^3) Gaussian-process training cost the paper
// cites as the reason high-dimensional joint searches need disproportionate
// budgets — plus the prediction cost that drives acquisition maximization,
// one point at a time (the refine) and as a 512-point pool (the candidates),
// and the whole acquisition argmax.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

#include "bo/acquisition.hpp"
#include "bo/gp.hpp"
#include "common/rng.hpp"
#include "core/app_registry.hpp"
#include "core/tunable_app.hpp"
#include "search/objective.hpp"
#include "search/samplers.hpp"

using namespace tunekit;

namespace {

struct Dataset {
  linalg::Matrix x;
  std::vector<double> y;
};

Dataset make_dataset(std::size_t n, std::size_t dim) {
  Rng rng(17);
  Dataset d{linalg::Matrix(n, dim), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      d.x(i, k) = rng.uniform();
      acc += (d.x(i, k) - 0.3) * (d.x(i, k) - 0.3);
    }
    d.y[i] = acc;
  }
  return d;
}

void BM_GpFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto data = make_dataset(n, dim);
  bo::GaussianProcess gp;
  gp.set_hyperparams(bo::GpHyperparams::isotropic(dim, 0.3));
  for (auto _ : state) {
    gp.fit(data.x, data.y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
  state.SetComplexityN(state.range(0));
}

void BM_GpPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = make_dataset(n, 10);
  bo::GaussianProcess gp;
  gp.set_hyperparams(bo::GpHyperparams::isotropic(10, 0.3));
  gp.fit(data.x, data.y);
  const std::vector<double> probe(10, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict(probe));
  }
}

// The acquisition's candidate pool: 512 points scored in one call, as
// maximize_acquisition does. Per point, compare with BM_GpPredict.
void BM_GpPredictBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = make_dataset(n, 10);
  bo::GaussianProcess gp;
  gp.set_hyperparams(bo::GpHyperparams::isotropic(10, 0.3));
  gp.fit(data.x, data.y);
  constexpr std::size_t kPool = 512;
  linalg::Matrix pool(kPool, 10);
  Rng rng(5);
  for (std::size_t c = 0; c < kPool; ++c) {
    for (std::size_t k = 0; k < 10; ++k) pool(c, k) = rng.uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict_batch(pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kPool));
}

void BM_GpHyperopt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = make_dataset(n, 5);
  for (auto _ : state) {
    bo::GaussianProcess gp;
    Rng rng(3);
    const std::size_t evals = gp.fit_with_hyperopt(data.x, data.y, rng, 1, 30);
    state.counters["lml_evals"] = static_cast<double>(evals);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}

/// N Latin-hypercube observations of the 10-dim Group3+Group4 subspace of
/// synthetic Case 5 (the session-d10 workload's search), fitted with the
/// hyperparameter search; built once per N.
struct ArgmaxProblem {
  bo::GaussianProcess gp;
  std::vector<double> incumbent;
  double best_value = 0.0;
};

const ArgmaxProblem& argmax_problem(std::size_t n) {
  static std::map<std::size_t, ArgmaxProblem> cache;
  if (const auto it = cache.find(n); it != cache.end()) return it->second;
  const auto app = core::make_builtin_app("synth:case5", 42).app;
  core::RegionSumObjective total(*app, {});
  std::vector<std::size_t> params;
  for (const auto& r : app->routines()) {
    if (r.name == "Group3" || r.name == "Group4") {
      params.insert(params.end(), r.params.begin(), r.params.end());
    }
  }
  search::SubspaceObjective sub(total, app->space(), params, app->baseline());
  Rng rng(1);
  const auto configs = search::sample_valid_configs(sub.space(), n, rng, true);
  linalg::Matrix x(n, sub.space().size());
  std::vector<double> y(n);
  std::size_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = sub.space().encode_unit(configs[i]);
    std::copy(u.begin(), u.end(), x.row_ptr(i));
    y[i] = sub.evaluate(configs[i]);
    if (y[i] < y[best]) best = i;
  }
  ArgmaxProblem p;
  p.incumbent = x.row(best);
  p.best_value = y[best];
  Rng fit_rng(5);
  p.gp.fit_with_hyperopt(std::move(x), std::move(y), fit_rng);
  return cache.emplace(n, std::move(p)).first->second;
}

// The whole maximize_acquisition of a BO ask: 512 EI candidates (128 around
// the incumbent, then 384 uniform), d = 10; args {N, refine_iters}. With
// refine_iters = 0 it is the pool's draw and scoring alone. The counter
// variance_solves is the pool rows whose variance best_of_pool computed.
void BM_AcquisitionArgmax(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ArgmaxProblem& p = argmax_problem(n);
  bo::AcquisitionMaximizerOptions opt;
  opt.refine_iters = static_cast<std::size_t>(state.range(1));
  constexpr auto kind = bo::AcquisitionKind::ExpectedImprovement;
  constexpr std::uint64_t kSeed = 11;
  // Every timed call draws the same pool; record it once through the
  // feasibility hook (no refine, whose point also passes the hook) to count
  // its variance solves.
  linalg::Matrix pool(opt.n_candidates, p.incumbent.size());
  std::size_t drawn = 0;
  Rng record_rng(kSeed);
  bo::AcquisitionMaximizerOptions draw_only = opt;
  draw_only.refine_iters = 0;
  bo::maximize_acquisition(p.gp, kind, {}, p.best_value, p.incumbent, record_rng, draw_only,
                           [&](const std::vector<double>& u) {
                             std::copy(u.begin(), u.end(), pool.row_ptr(drawn++));
                             return true;
                           });
  const bo::PoolPick pick = bo::best_of_pool(p.gp, pool, kind, {}, p.best_value);
  for (auto _ : state) {
    Rng rng(kSeed);
    benchmark::DoNotOptimize(
        bo::maximize_acquisition(p.gp, kind, {}, p.best_value, p.incumbent, rng, opt, nullptr));
  }
  state.counters["variance_solves"] = static_cast<double>(pick.variance_solves);
}

}  // namespace

BENCHMARK(BM_GpFit)
    ->Args({25, 10})
    ->Args({50, 10})
    ->Args({100, 10})
    ->Args({200, 10})
    ->Args({200, 20})
    ->Complexity(benchmark::oNCubed);
BENCHMARK(BM_GpPredict)->Arg(50)->Arg(100)->Arg(200)->Arg(400);
BENCHMARK(BM_GpPredictBatch)->Arg(50)->Arg(100)->Arg(200)->Arg(400);
BENCHMARK(BM_GpHyperopt)->Arg(30)->Arg(60);
BENCHMARK(BM_AcquisitionArgmax)
    ->Args({110, 40})
    ->Args({110, 0})
    ->Args({300, 40})
    ->Args({300, 0})
    ->Unit(benchmark::kMillisecond);
