#pragma once
// The Bayesian-optimization search driver (the GPTune stand-in), and the
// one BO loop every strategy in this directory runs.
//
// Loop: warm start, then an LHS initial design (5 random configurations, as
// the paper uses) -> fit the surrogate (periodic hyperparameter search) ->
// propose under the space's validity constraints -> evaluate -> repeat
// until the evaluation budget (the paper's criterion: 10 x num_parameters)
// is spent.
//
// The Surrogate seam splits a strategy from the loop. A strategy supplies
// only its model (fit) and its proposal step (propose). The loop owns
// everything else, once: evaluation with the failure taxonomy, warm start
// and initial design, the hyperparameter-search cadence, the random
// fallback when a fit throws, repair and duplicate handling, telemetry,
// and the result. BayesOpt's own surrogate is GpSurrogate: one GP over all
// coordinates, maximized by maximize_acquisition. AdditiveBo and DropoutBo
// plug in their own surrogates; Rembo runs this loop over its embedded box.
//
// Features carried over from GPTune because the paper depends on them:
//  * hard search-space constraints (candidates are filtered for validity),
//  * transfer learning (TransferPrior as GP prior mean).
// Crash recovery lives in the session journal (service::TuningSession),
// which every planned search of core::PlanExecutor runs through.

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

/// `n` initial configurations: LHS or uniform draws from `rng`, or the
/// Sobol' sequence scrambled by `seed`.
std::vector<search::Config> initial_design(const search::SearchSpace& space,
                                           InitialDesign design, std::size_t n,
                                           std::uint64_t seed, tunekit::Rng& rng);

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
  /// Iteration cap per restart of the hyperparameter search (projected
  /// L-BFGS for the GP; Nelder-Mead for AdditiveGp). The GP search usually
  /// stops well before it, on its gradient and decrease tolerances.
  std::size_t hyperopt_max_iters = 120;

  std::uint64_t seed = 1;

  /// Duplicate proposals (common in small discrete spaces) are replaced by
  /// random valid configs after this many repeats of an already-evaluated
  /// configuration.
  std::size_t duplicate_retries = 3;

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

  /// Spans ("bo.iteration" → "gp.fit", "acq.argmax", "eval"), evaluation
  /// counters, and GP-fit / acquisition-argmax timing histograms (null =
  /// disabled, the default).
  obs::Telemetry* telemetry = nullptr;
};

/// The loop settings a strategy's options share with BoOptions: budget,
/// initial design size, kernel, hyperparameter-search cadence and seed.
template <typename StrategyOptions>
BoOptions loop_options(const StrategyOptions& o) {
  BoOptions b;
  b.max_evals = o.max_evals;
  b.n_init = o.n_init;
  b.kernel = o.kernel;
  b.hyperopt_every = o.hyperopt_every;
  b.hyperopt_restarts = o.hyperopt_restarts;
  b.hyperopt_max_iters = o.hyperopt_max_iters;
  b.seed = o.seed;
  return b;
}

/// One BO strategy's model and proposal step; BayesOpt::run is the loop.
class Surrogate {
 public:
  virtual ~Surrogate() = default;

  /// Fit unit-cube rows `x` to targets `y`, with failures already left out
  /// or penalized. `search` asks for a hyperparameter search this time.
  /// A throw makes the loop evaluate a random valid configuration instead.
  virtual void fit(linalg::Matrix x, std::vector<double> y, bool search,
                   tunekit::Rng& rng) = 0;

  /// The next unit-cube point, given the incumbent (the best fitted
  /// target and its row). `accept` is the space's validity test on unit
  /// points; the loop repairs or replaces a proposal that fails it.
  virtual std::vector<double> propose(double best_value, const std::vector<double>& best_unit,
                                      tunekit::Rng& rng, const UnitFilter& accept) = 0;
};

/// BayesOpt's surrogate: one GP over every coordinate, with the transfer
/// prior as its mean, proposing through maximize_acquisition. Reads
/// `options`, which must outlive it.
class GpSurrogate final : public Surrogate {
 public:
  /// `isotropic_search`: start every hyperparameter search from the
  /// isotropic defaults rather than from the last fit's values.
  explicit GpSurrogate(const BoOptions& options, bool isotropic_search = false);

  void fit(linalg::Matrix x, std::vector<double> y, bool search, tunekit::Rng& rng) override;
  std::vector<double> propose(double best_value, const std::vector<double>& best_unit,
                              tunekit::Rng& rng, const UnitFilter& accept) override;

  GaussianProcess& gp() { return gp_; }

 private:
  const BoOptions& options_;
  GaussianProcess gp_;
  bool isotropic_search_;
};

class BayesOpt {
 public:
  explicit BayesOpt(BoOptions options = {}) : options_(std::move(options)) {}

  const BoOptions& options() const { return options_; }

  /// Run the search.
  search::SearchResult run(search::Objective& objective,
                           const search::SearchSpace& space) const;

  /// As run(), but also exposes the evaluation database (for transfer
  /// learning into a later task).
  search::SearchResult run(search::Objective& objective, const search::SearchSpace& space,
                           search::EvalDb& db) const;

  /// The loop with another strategy's surrogate in place of GpSurrogate.
  search::SearchResult run(search::Objective& objective, const search::SearchSpace& space,
                           search::EvalDb& db, Surrogate& surrogate) const;

  /// Suggest `k` configurations to evaluate in parallel, without evaluating
  /// anything (constant-liar batching): each accepted suggestion is added to
  /// the surrogate as a pseudo-observation at the incumbent best value, so
  /// later suggestions explore elsewhere. The GP's hyperparameters are
  /// searched from the isotropic defaults. Failed evaluations are left out
  /// or enter at failure_penalty, as in run(). Requires a database with at
  /// least one usable evaluation.
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
  /// draws from its own random stream, seeded from the seed and the size of
  /// `db` (the observations plus liars the call fits): successive asks draw
  /// fresh candidates, a regenerated ask over the same state draws what the
  /// original did, and a call that reuses hyperparameters proposes exactly
  /// what a call that searched its way to the same values proposes.
  Batch suggest_batch(const search::EvalDb& db, const search::SearchSpace& space,
                      std::size_t k, const std::optional<GpHyperparams>& held,
                      bool search) const;

 private:
  BoOptions options_;
};

}  // namespace tunekit::bo
