#pragma once
// Additive Bayesian optimization (Kandasamy et al., ICML'15): a single
// additive GP over a coordinate decomposition, with the acquisition
// maximized group-by-group (each group's component is independent given the
// decomposition). The paper inverts this idea — instead of decomposing a
// joint search into additive pieces after an expensive analysis, it merges
// cheap searches that show interdependence.
//
// The additive GP and the group-wise LCB are a Surrogate of BayesOpt::run,
// which owns the loop: failures are recorded as NaN and left out of the
// model, and duplicates and invalid proposals are handled there.

#include <functional>
#include <optional>

#include "bo/acquisition.hpp"
#include "bo/additive_gp.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::bo {

/// Called before each fit with the usable archive: the unit-cube rows and
/// objective values of every evaluation that did not fail, in evaluation
/// order. Returning a non-empty group set makes the search adopt that
/// decomposition for this fit: the additive GP is rebuilt over the new
/// groups and refit from the complete archive, so no observation is
/// discarded on a re-cut. This is how the online structure learner
/// (structure::OnlineLearner) re-partitions a running additive search; a
/// hook that feeds a learner should feed it only the rows it has not seen.
using RegroupHook = std::function<std::optional<std::vector<std::vector<std::size_t>>>(
    const std::vector<std::vector<double>>& units, const std::vector<double>& values)>;

struct AdditiveBoOptions {
  std::size_t max_evals = 100;
  std::size_t n_init = 5;

  KernelKind kernel = KernelKind::Matern52;
  /// Per-group LCB exploration weight; 1.0 works best on additive
  /// objectives (each component is low-dimensional, so less exploration is
  /// needed than in a joint search).
  AcquisitionParams acq_params{0.01, 1.0};
  /// Candidates per group when maximizing the per-group acquisition.
  std::size_t group_candidates = 128;
  std::size_t hyperopt_every = 5;
  std::size_t hyperopt_restarts = 1;
  std::size_t hyperopt_max_iters = 60;
  std::uint64_t seed = 1;

  /// Optional online-repartition hook (null = static decomposition).
  RegroupHook regroup_hook;
};

class AdditiveBo {
 public:
  /// `groups`: disjoint coordinate groups (from a known decomposition or an
  /// orthogonality analysis).
  AdditiveBo(std::vector<std::vector<std::size_t>> groups, AdditiveBoOptions options = {});

  search::SearchResult run(search::Objective& objective,
                           const search::SearchSpace& space) const;

 private:
  std::vector<std::vector<std::size_t>> groups_;
  AdditiveBoOptions options_;
};

}  // namespace tunekit::bo
