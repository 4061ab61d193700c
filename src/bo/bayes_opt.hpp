#pragma once
// The Bayesian-optimization search driver (the GPTune stand-in).
//
// Loop: LHS initial design (5 random configurations, as the paper uses) ->
// fit GP (periodic hyperparameter optimization) -> maximize acquisition
// under the space's validity constraints -> evaluate -> repeat until the
// evaluation budget (the paper's criterion: 10 x num_parameters) is spent.
//
// Features carried over from GPTune because the paper depends on them:
//  * hard search-space constraints (candidates are filtered for validity),
//  * crash recovery (JSON checkpoints via EvalDb; run() resumes from them),
//  * transfer learning (TransferPrior as GP prior mean).

#include <optional>
#include <string>

#include "bo/acquisition.hpp"
#include "bo/transfer.hpp"
#include "search/eval_db.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::bo {

enum class InitialDesign { LatinHypercube, Sobol, UniformRandom };

struct BoOptions {
  /// Total evaluation budget (including the initial design).
  std::size_t max_evals = 100;
  /// Initial random configurations (paper: 5).
  std::size_t n_init = 5;
  /// Space-filling design used for the initial configurations.
  InitialDesign init_design = InitialDesign::LatinHypercube;

  KernelKind kernel = KernelKind::Matern52;
  AcquisitionKind acquisition = AcquisitionKind::ExpectedImprovement;
  AcquisitionParams acq_params;
  AcquisitionMaximizerOptions maximizer;

  /// Re-optimize GP hyperparameters every this many BO iterations in run(),
  /// or every this many completed evaluations in a service::TuningSession
  /// (1 = every time). Between re-optimizations the GP refits with the
  /// current hyperparameters only; 0 = never re-optimize, the GP keeps the
  /// isotropic defaults.
  std::size_t hyperopt_every = 5;
  std::size_t hyperopt_restarts = 2;
  /// Nelder-Mead iteration cap per hyperparameter optimization.
  std::size_t hyperopt_max_iters = 120;

  std::uint64_t seed = 1;

  /// Duplicate proposals (common in small discrete spaces) are replaced by
  /// random valid configs after this many repeats of an already-evaluated
  /// configuration.
  std::size_t duplicate_retries = 3;

  /// Checkpointing: empty path disables. When `resume` is true and the file
  /// exists, previous evaluations are loaded and the budget continues from
  /// there.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 10;
  bool resume = false;

  /// Optional transfer-learning prior fitted on a source task.
  std::optional<TransferPrior> transfer;

  /// Warm-start configurations evaluated before the random initial design
  /// (e.g. the source task's best configurations) — the second half of the
  /// transfer-learning mechanism. Invalid or duplicate entries are skipped;
  /// they count toward n_init and the total budget.
  std::vector<search::Config> warm_start;

  /// Evaluations whose objective exceeds this are recorded but reported to
  /// the GP clamped at the value (simulates the paper's 15-minute timeout
  /// during Case Study 2's search). infinity = disabled.
  double timeout_value = std::numeric_limits<double>::infinity();

  /// Objective exceptions (application crashes) are caught and recorded as
  /// failed evaluations. A finite failure_penalty feeds that value to the
  /// surrogate, steering it away from the crashing region; the default NaN
  /// excludes failed points from the surrogate entirely. Failures count
  /// toward the budget, so a crash-looping application still terminates.
  double failure_penalty = std::numeric_limits<double>::quiet_NaN();

  /// Spans ("bo.iteration" → "eval"), evaluation counters, and GP-fit /
  /// acquisition-argmax timing histograms (null = disabled, the default).
  obs::Telemetry* telemetry = nullptr;
};

class BayesOpt {
 public:
  explicit BayesOpt(BoOptions options = {}) : options_(std::move(options)) {}

  const BoOptions& options() const { return options_; }

  /// Run the search. The returned SearchResult's trajectory includes any
  /// checkpoint-restored evaluations first.
  search::SearchResult run(search::Objective& objective,
                           const search::SearchSpace& space) const;

  /// As run(), but also exposes the evaluation database (for transfer
  /// learning into a later task).
  search::SearchResult run(search::Objective& objective, const search::SearchSpace& space,
                           search::EvalDb& db) const;

  /// Suggest `k` configurations to evaluate in parallel, without evaluating
  /// anything (constant-liar batching): each accepted suggestion is added to
  /// the surrogate as a pseudo-observation at the incumbent best value, so
  /// later suggestions explore elsewhere. The GP's hyperparameters are
  /// searched from the isotropic defaults. Requires a non-empty database.
  std::vector<search::Config> suggest_batch(const search::EvalDb& db,
                                            const search::SearchSpace& space,
                                            std::size_t k) const;

  /// A suggest_batch() result that also reports the hyperparameter search.
  struct Batch {
    std::vector<search::Config> configs;
    /// Set when this call ran the hyperparameter search and fitted with its
    /// result: the hyperparameters the caller should hold from now on.
    std::optional<GpHyperparams> searched;
  };

  /// suggest_batch() with GP hyperparameters the caller holds between calls
  /// (`held`; nullopt = the isotropic defaults). With `search`, the batch's
  /// first fit runs the hyperparameter search warm-started from `held`;
  /// without, every fit is one plain refit with `held`. The acquisition
  /// draws from its own random stream, so a call that reuses hyperparameters
  /// proposes exactly what a call that searched its way to the same values
  /// proposes.
  Batch suggest_batch(const search::EvalDb& db, const search::SearchSpace& space,
                      std::size_t k, const std::optional<GpHyperparams>& held,
                      bool search) const;

 private:
  BoOptions options_;
};

}  // namespace tunekit::bo
