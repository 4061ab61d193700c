#include "bo/bayes_opt.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/telemetry.hpp"
#include "robust/outcome.hpp"
#include "search/samplers.hpp"
#include "search/sobol.hpp"

namespace tunekit::bo {

namespace {

bool nearly_equal_config(const search::Config& a, const search::Config& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-9 * std::max(1.0, std::abs(a[i]))) return false;
  }
  return true;
}

bool already_evaluated(const std::vector<search::Evaluation>& evals,
                       const search::Config& c) {
  return std::any_of(evals.begin(), evals.end(), [&](const search::Evaluation& e) {
    return nearly_equal_config(e.config, c);
  });
}

void observe_seconds(const BoOptions& options, const char* histogram, double seconds) {
  obs::Telemetry* telemetry = options.telemetry;
  if (telemetry == nullptr || !telemetry->enabled()) return;
  telemetry->metrics().histogram(histogram, obs::default_time_buckets()).observe(seconds);
}

/// What the surrogate is fitted to, in unit coordinates, and its incumbent.
struct TrainingSet {
  std::vector<std::vector<double>> units;
  std::vector<double> values;
  double best_value = std::numeric_limits<double>::infinity();
  std::vector<double> best_unit;
};

TrainingSet training_set(const std::vector<search::Evaluation>& evals,
                         const search::SearchSpace& space, const BoOptions& options) {
  TrainingSet t;
  for (const auto& e : evals) {
    double value = e.value;
    // Any non-finite observation (NaN crash sentinel or an overflowed +inf
    // timing) is a failure: penalize or exclude, never feed it to the model.
    if (!std::isfinite(value)) {
      if (!std::isfinite(options.failure_penalty)) continue;
      value = options.failure_penalty;
    }
    value = std::min(value, options.timeout_value);
    t.units.push_back(space.encode_unit(e.config));
    t.values.push_back(value);
    if (value < t.best_value) {
      t.best_value = value;
      t.best_unit = t.units.back();
    }
  }
  return t;
}

/// Fit `surrogate` to `t`; false when the fit throws (the caller then falls
/// back to a random valid configuration).
bool fit_surrogate(Surrogate& surrogate, const TrainingSet& t, std::size_t dims, bool search,
                   tunekit::Rng& rng, const BoOptions& options) {
  linalg::Matrix x(t.units.size(), dims);
  for (std::size_t i = 0; i < t.units.size(); ++i) {
    for (std::size_t k = 0; k < dims; ++k) x(i, k) = t.units[i][k];
  }
  try {
    obs::ScopedSpan fit_span(options.telemetry, "gp.fit");
    Stopwatch fit_watch;
    surrogate.fit(std::move(x), t.values, search, rng);
    observe_seconds(options, obs::metric::kGpFitSeconds, fit_watch.seconds());
    return true;
  } catch (const std::exception& e) {
    // A surrogate breakdown (e.g. all-identical targets) must not end the
    // search.
    log_warn("bo: surrogate fit failed (", e.what(), "); random fallback");
    return false;
  }
}

/// The surrogate's proposal, made valid (repaired, else a random valid
/// configuration) and distinct from `seen`: a duplicate, common in small
/// discrete spaces, is proposed again up to duplicate_retries times and
/// then replaced by a random valid configuration.
search::Config distinct_proposal(Surrogate& surrogate, const TrainingSet& t,
                                 const search::SearchSpace& space,
                                 const std::vector<search::Evaluation>& seen,
                                 tunekit::Rng& rng, const BoOptions& options) {
  obs::ScopedSpan acq_span(options.telemetry, "acq.argmax");
  Stopwatch acq_watch;
  const UnitFilter accept = [&](const std::vector<double>& u) {
    return space.is_valid(space.decode_unit(u));
  };
  auto propose = [&] {
    search::Config c =
        space.decode_unit(surrogate.propose(t.best_value, t.best_unit, rng, accept));
    if (space.is_valid(c)) return c;
    if (space.has_repair()) {
      c = space.repair(std::move(c));
      if (space.is_valid(c)) return c;
    }
    return space.sample_valid(rng);
  };
  search::Config proposal = propose();
  for (std::size_t r = 0; r < options.duplicate_retries && already_evaluated(seen, proposal);
       ++r) {
    proposal = propose();
  }
  if (already_evaluated(seen, proposal)) proposal = space.sample_valid(rng);
  // Proposal-selection time including duplicate retries: each retry is a
  // full argmax, and their cost is what this histogram exists to expose.
  observe_seconds(options, obs::metric::kAcqArgmaxSeconds, acq_watch.seconds());
  return proposal;
}

}  // namespace

std::vector<search::Config> initial_design(const search::SearchSpace& space,
                                           InitialDesign design, std::size_t n,
                                           std::uint64_t seed, tunekit::Rng& rng) {
  switch (design) {
    case InitialDesign::Sobol:
      return search::SobolSequence::sample(space, n, seed | 1);
    case InitialDesign::UniformRandom:
      return search::sample_valid_configs(space, n, rng, /*latin_hypercube=*/false);
    case InitialDesign::LatinHypercube:
      break;
  }
  return search::sample_valid_configs(space, n, rng, /*latin_hypercube=*/true);
}

GpSurrogate::GpSurrogate(const BoOptions& options, bool isotropic_search)
    : options_(options), gp_(options.kernel), isotropic_search_(isotropic_search) {
  if (options_.transfer) {
    const TransferPrior& prior = *options_.transfer;
    gp_.set_prior_mean([&prior](const std::vector<double>& u) { return prior.mean_at(u); });
  }
}

void GpSurrogate::fit(linalg::Matrix x, std::vector<double> y, bool search,
                      tunekit::Rng& rng) {
  if (!search) {
    gp_.fit(std::move(x), std::move(y));
    return;
  }
  if (isotropic_search_) gp_.set_hyperparams(GpHyperparams::isotropic(x.cols()));
  gp_.fit_with_hyperopt(std::move(x), std::move(y), rng, options_.hyperopt_restarts,
                        options_.hyperopt_max_iters);
}

std::vector<double> GpSurrogate::propose(double best_value,
                                         const std::vector<double>& best_unit,
                                         tunekit::Rng& rng, const UnitFilter& accept) {
  return maximize_acquisition(gp_, options_.acquisition, options_.acq_params, best_value,
                              best_unit, rng, options_.maximizer, accept);
}

search::SearchResult BayesOpt::run(search::Objective& objective,
                                   const search::SearchSpace& space) const {
  search::EvalDb db;
  return run(objective, space, db);
}

search::SearchResult BayesOpt::run(search::Objective& objective,
                                   const search::SearchSpace& space,
                                   search::EvalDb& db) const {
  GpSurrogate surrogate(options_);
  return run(objective, space, db, surrogate);
}

search::SearchResult BayesOpt::run(search::Objective& objective,
                                   const search::SearchSpace& space, search::EvalDb& db,
                                   Surrogate& surrogate) const {
  Stopwatch watch;
  tunekit::Rng rng(options_.seed);
  obs::Telemetry* telemetry = options_.telemetry;
  const bool traced = telemetry != nullptr && telemetry->enabled();

  auto evaluate_and_record = [&](const search::Config& config) {
    obs::ScopedSpan eval_span(telemetry, "eval");
    if (traced) telemetry->metrics().counter(obs::metric::kEvalsStarted).inc();
    Stopwatch eval_watch;
    double value = std::numeric_limits<double>::quiet_NaN();
    robust::EvalOutcome outcome = robust::EvalOutcome::Ok;
    try {
      value = objective.evaluate(config);
      outcome = robust::classify_value(value);
    } catch (const robust::EvalFailure& e) {
      // A hardened objective already classified the failure; keep the why.
      log_warn("bo: evaluation failed (", e.what(), "); recording as ",
               robust::to_string(e.outcome()));
      outcome = e.outcome();
    } catch (const std::invalid_argument& e) {
      log_warn("bo: invalid configuration (", e.what(), "); recording as failure");
      outcome = robust::EvalOutcome::InvalidConfig;
    } catch (const std::exception& e) {
      // Application crash: record the failure and keep searching.
      log_warn("bo: evaluation failed (", e.what(), "); recording as failure");
      outcome = robust::EvalOutcome::Crashed;
    } catch (...) {
      log_warn("bo: evaluation threw a non-standard exception; recording as crash");
      outcome = robust::EvalOutcome::Crashed;
    }
    const double seconds = eval_watch.seconds();
    eval_span.end();
    if (traced) obs::outcome_counter(telemetry->metrics(), robust::to_string(outcome)).inc();
    observe_seconds(options_, obs::metric::kEvalSeconds, seconds);
    if (robust::is_failure(outcome)) value = std::numeric_limits<double>::quiet_NaN();
    db.record(config, value, seconds, outcome);
  };

  // Warm start: source-task winners first (transfer learning).
  for (const auto& config : options_.warm_start) {
    if (db.size() >= options_.max_evals) break;
    if (!space.is_valid(config)) {
      log_warn("bo: skipping invalid warm-start configuration");
      continue;
    }
    if (already_evaluated(db.all(), config)) continue;
    evaluate_and_record(config);
  }

  if (db.size() < options_.n_init) {
    for (const auto& config : initial_design(space, options_.init_design,
                                             options_.n_init - db.size(), options_.seed,
                                             rng)) {
      if (db.size() >= options_.max_evals) break;
      evaluate_and_record(config);
    }
  }

  for (std::size_t iteration = 0; db.size() < options_.max_evals; ++iteration) {
    obs::ScopedSpan iter_span(telemetry, "bo.iteration");
    const auto evals = db.all();
    const TrainingSet t = training_set(evals, space, options_);
    const bool search =
        options_.hyperopt_every > 0 && iteration % options_.hyperopt_every == 0;
    // Nothing usable yet (everything failed), or the fit broke down:
    // explore at random.
    evaluate_and_record(
        !t.units.empty() && fit_surrogate(surrogate, t, space.size(), search, rng, options_)
            ? distinct_proposal(surrogate, t, space, evals, rng, options_)
            : space.sample_valid(rng));
  }

  return search::make_result("bo", db.all(), watch.seconds());
}

std::vector<search::Config> BayesOpt::suggest_batch(const search::EvalDb& db,
                                                    const search::SearchSpace& space,
                                                    std::size_t k) const {
  return suggest_batch(db, space, k, std::nullopt, /*search=*/true).configs;
}

BayesOpt::Batch BayesOpt::suggest_batch(const search::EvalDb& db,
                                        const search::SearchSpace& space, std::size_t k,
                                        const std::optional<GpHyperparams>& held,
                                        bool search) const {
  const auto evals = db.all();
  if (evals.empty()) {
    throw std::invalid_argument("BayesOpt::suggest_batch: empty evaluation database");
  }
  // Observed data plus the growing liar set.
  TrainingSet t = training_set(evals, space, options_);
  if (t.units.empty()) {
    throw std::invalid_argument("BayesOpt::suggest_batch: no usable evaluations");
  }
  // Separate streams: the search's random restarts draw from one, the
  // acquisition (multistarts, duplicate and failure fallbacks) from the
  // other, so searching never shifts what the acquisition draws. The
  // acquisition stream also keys on the liar-set size, so each ask of a
  // session draws fresh multistarts (a fixed stream re-draws the same
  // offsets around an unchanged incumbent, and the argmax keeps landing on
  // evaluated points), while the same state always draws the same ones.
  tunekit::Rng hyperopt_rng(options_.seed ^ 0xba7c4);
  tunekit::Rng rng(options_.seed ^ (0xac9f1 + evals.size() * 0x9e3779b97f4a7c15ull));

  GpSurrogate surrogate(options_);
  if (held) surrogate.gp().set_hyperparams(*held);

  Batch out;
  std::vector<search::Evaluation> seen = evals;
  for (std::size_t b = 0; b < k; ++b) {
    const bool searching = b == 0 && search;
    if (!fit_surrogate(surrogate, t, space.size(), searching, hyperopt_rng, options_)) {
      out.configs.push_back(space.sample_valid(rng));
      continue;
    }
    if (searching) out.searched = surrogate.gp().hyperparams();
    search::Config proposal = distinct_proposal(surrogate, t, space, seen, rng, options_);

    // Constant liar: pretend the proposal observed the incumbent best.
    t.units.push_back(space.encode_unit(proposal));
    t.values.push_back(t.best_value);
    seen.push_back({proposal, t.best_value, 0.0});
    out.configs.push_back(std::move(proposal));
  }
  return out;
}

}  // namespace tunekit::bo
