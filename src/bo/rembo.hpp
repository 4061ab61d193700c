#pragma once
// Random EMbedding Bayesian Optimization (Wang et al., IJCAI'13) — the
// "embedded strategy" of the paper's related work: optimize a random
// low-dimensional linear subspace y ∈ [-√d, √d]^d, project x = A·y back to
// the full space (clipped to the box), and evaluate there. Projection
// distortions near the box boundary are the weakness the paper cites.
//
// The search is BayesOpt::run over the embedded box itself, whose one
// constraint is that y's projection (repaired, when the space can repair)
// is a valid configuration. The candidate filter and valid sampling skip
// infeasible projections, so they are never evaluated and spend no budget.
// Every hyperparameter search restarts from the isotropic defaults.

#include "bo/acquisition.hpp"
#include "linalg/matrix.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::bo {

struct RemboOptions {
  std::size_t max_evals = 100;
  std::size_t n_init = 5;
  /// Embedding dimensionality d << D.
  std::size_t embedding_dims = 5;

  KernelKind kernel = KernelKind::Matern52;
  AcquisitionKind acquisition = AcquisitionKind::ExpectedImprovement;
  AcquisitionParams acq_params;
  AcquisitionMaximizerOptions maximizer;
  std::size_t hyperopt_every = 5;
  std::size_t hyperopt_restarts = 1;
  std::size_t hyperopt_max_iters = 60;
  std::uint64_t seed = 1;
};

class Rembo {
 public:
  explicit Rembo(RemboOptions options = {}) : options_(options) {}

  search::SearchResult run(search::Objective& objective,
                           const search::SearchSpace& space) const;

  /// The projection used internally, exposed for tests: y in the embedded
  /// box maps to a unit-cube point (clipped).
  static std::vector<double> project(const linalg::Matrix& embedding,
                                     const std::vector<double>& y);

 private:
  RemboOptions options_;
};

}  // namespace tunekit::bo
