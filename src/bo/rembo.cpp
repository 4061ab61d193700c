#include "bo/rembo.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "bo/bayes_opt.hpp"

namespace tunekit::bo {

std::vector<double> Rembo::project(const linalg::Matrix& embedding,
                                   const std::vector<double>& y) {
  // x_unit = clip(0.5 + A y, [0, 1]) — the embedding acts around the cube
  // center so y = 0 maps to the center configuration.
  std::vector<double> x = embedding.mul(y);
  for (double& v : x) v = std::clamp(0.5 + v, 0.0, 1.0);
  return x;
}

search::SearchResult Rembo::run(search::Objective& objective,
                                const search::SearchSpace& space) const {
  const std::size_t d = std::min(options_.embedding_dims, space.size());
  const double box = std::sqrt(static_cast<double>(d));

  // Gaussian random embedding, scaled so typical |A y| spans the cube. It
  // draws from its own stream; the search draws from options_.seed.
  tunekit::Rng embedding_rng(options_.seed ^ 0x3e4b0);
  linalg::Matrix embedding(space.size(), d);
  for (std::size_t i = 0; i < space.size(); ++i) {
    for (std::size_t k = 0; k < d; ++k) embedding(i, k) = embedding_rng.normal() / (2.0 * box);
  }
  const auto to_full = [&](const search::Config& y) {
    search::Config config = space.decode_unit(project(embedding, y));
    if (!space.is_valid(config) && space.has_repair()) config = space.repair(std::move(config));
    return config;
  };

  search::SearchSpace embedded;
  for (std::size_t k = 0; k < d; ++k) {
    // Not "y" + std::to_string(k), which GCC 12 at -O3 misreads as an
    // overlapping copy (-Wrestrict).
    embedded.add(search::ParamSpec::real(std::string("y").append(std::to_string(k)), -box,
                                         box, 0.0));
  }
  embedded.add_constraint("feasible-projection", [&](const search::Config& y) {
    return space.is_valid(to_full(y));
  });
  search::FunctionObjective lifted(
      [&](const search::Config& y) { return objective.evaluate(to_full(y)); },
      objective.thread_safe());

  BoOptions bo = loop_options(options_);
  bo.acquisition = options_.acquisition;
  bo.acq_params = options_.acq_params;
  bo.maximizer = options_.maximizer;
  GpSurrogate surrogate(bo, /*isotropic_search=*/true);
  search::EvalDb db;
  auto result = BayesOpt(bo).run(lifted, embedded, db, surrogate);
  result.method = "rembo";
  if (result.found()) result.best_config = to_full(result.best_config);
  return result;
}

}  // namespace tunekit::bo
