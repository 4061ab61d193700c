// google-benchmark: the O(N^3) Gaussian-process training cost the paper
// cites as the reason high-dimensional joint searches need disproportionate
// budgets — plus the prediction cost that drives acquisition maximization,
// one point at a time (the refine) and as a 512-point pool (the candidates).

#include <benchmark/benchmark.h>

#include "bo/gp.hpp"
#include "common/rng.hpp"

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
