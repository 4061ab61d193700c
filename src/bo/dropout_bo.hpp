#pragma once
// Dropout Bayesian optimization (Li et al., IJCAI'17) — one of the three
// high-dimensional BO strategies the paper's related work surveys: each
// iteration models and optimizes only `d` randomly chosen dimensions out of
// D, filling the rest from the incumbent or with random values. Convergence
// is typically slower than a well-partitioned search (the paper's point),
// which bench/ablation_highdim_strategies measures.
//
// The dropout GP is a Surrogate of BayesOpt::run, which owns the loop. Each
// fit draws the iteration's active subspace and, when it searches the
// hyperparameters, starts from the isotropic defaults; each proposal
// maximizes the acquisition over that subspace and fills the dropped
// coordinates. Failures are recorded as NaN and left out of the model.

#include "bo/acquisition.hpp"
#include "search/eval_db.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::bo {

struct DropoutBoOptions {
  std::size_t max_evals = 100;
  std::size_t n_init = 5;
  /// Dimensions modeled per iteration.
  std::size_t active_dims = 5;
  /// "copy" fills dropped dimensions from the incumbent best (Li et al.'s
  /// best-performing variant); otherwise they are drawn uniformly.
  bool fill_from_best = true;

  KernelKind kernel = KernelKind::Matern52;
  AcquisitionKind acquisition = AcquisitionKind::ExpectedImprovement;
  AcquisitionParams acq_params;
  AcquisitionMaximizerOptions maximizer;
  std::size_t hyperopt_every = 5;
  std::size_t hyperopt_restarts = 1;
  std::size_t hyperopt_max_iters = 60;
  std::uint64_t seed = 1;
};

class DropoutBo {
 public:
  explicit DropoutBo(DropoutBoOptions options = {}) : options_(options) {}

  search::SearchResult run(search::Objective& objective,
                           const search::SearchSpace& space) const;

 private:
  DropoutBoOptions options_;
};

}  // namespace tunekit::bo
