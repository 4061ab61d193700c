#include "bo/bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

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

}  // namespace

search::SearchResult BayesOpt::run(search::Objective& objective,
                                   const search::SearchSpace& space) const {
  search::EvalDb db;
  return run(objective, space, db);
}

search::SearchResult BayesOpt::run(search::Objective& objective,
                                   const search::SearchSpace& space,
                                   search::EvalDb& db) const {
  Stopwatch watch;
  tunekit::Rng rng(options_.seed);
  obs::Telemetry* telemetry = options_.telemetry;
  const bool traced = telemetry != nullptr && telemetry->enabled();

  // Crash recovery: restore prior evaluations if asked to.
  if (options_.resume && !options_.checkpoint_path.empty() &&
      std::filesystem::exists(options_.checkpoint_path)) {
    db = search::EvalDb::load(options_.checkpoint_path, space);
    log_info("bo: resumed ", db.size(), " evaluations from ", options_.checkpoint_path);
  }

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
    if (traced) {
      obs::outcome_counter(telemetry->metrics(), robust::to_string(outcome)).inc();
      telemetry->metrics()
          .histogram(obs::metric::kEvalSeconds, obs::default_time_buckets())
          .observe(seconds);
    }
    if (robust::is_failure(outcome)) value = std::numeric_limits<double>::quiet_NaN();
    db.record(config, value, seconds, outcome);
    if (!options_.checkpoint_path.empty() && options_.checkpoint_every > 0 &&
        db.size() % options_.checkpoint_every == 0) {
      db.save(options_.checkpoint_path);
    }
    return value;
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

  // Initial design.
  if (db.size() < options_.n_init) {
    const std::size_t missing = options_.n_init - db.size();
    std::vector<search::Config> init;
    switch (options_.init_design) {
      case InitialDesign::LatinHypercube:
        init = search::sample_valid_configs(space, missing, rng, /*latin_hypercube=*/true);
        break;
      case InitialDesign::Sobol:
        init = search::SobolSequence::sample(space, missing, options_.seed | 1);
        break;
      case InitialDesign::UniformRandom:
        init = search::sample_valid_configs(space, missing, rng, /*latin_hypercube=*/false);
        break;
    }
    for (const auto& config : init) {
      if (db.size() >= options_.max_evals) break;
      evaluate_and_record(config);
    }
  }

  GaussianProcess gp(options_.kernel);
  if (options_.transfer) {
    const TransferPrior& prior = *options_.transfer;
    gp.set_prior_mean([&prior](const std::vector<double>& u) { return prior.mean_at(u); });
  }

  auto accept_unit = [&](const std::vector<double>& u) {
    return space.is_valid(space.decode_unit(u));
  };

  std::size_t iteration = 0;
  while (db.size() < options_.max_evals) {
    obs::ScopedSpan iter_span(telemetry, "bo.iteration");
    // Assemble training data in unit coordinates; clamp timeouts and handle
    // failed evaluations per failure_penalty.
    const auto evals = db.all();
    std::vector<std::vector<double>> unit_points;
    std::vector<double> targets;
    double best_value = std::numeric_limits<double>::infinity();
    std::vector<double> best_unit;
    for (const auto& e : evals) {
      double value = e.value;
      // Any non-finite observation (NaN crash sentinel or an overflowed +inf
      // timing) is a failure: penalize or exclude, never feed it to the GP.
      if (!std::isfinite(value)) {
        if (std::isnan(options_.failure_penalty)) continue;  // exclude failures
        value = options_.failure_penalty;
      }
      value = std::min(value, options_.timeout_value);
      auto unit = space.encode_unit(e.config);
      if (value < best_value) {
        best_value = value;
        best_unit = unit;
      }
      unit_points.push_back(std::move(unit));
      targets.push_back(value);
    }
    if (unit_points.empty()) {
      // Everything failed so far: explore at random.
      evaluate_and_record(space.sample_valid(rng));
      ++iteration;
      continue;
    }
    linalg::Matrix x(unit_points.size(), space.size());
    std::vector<double> y = std::move(targets);
    for (std::size_t i = 0; i < unit_points.size(); ++i) {
      for (std::size_t k = 0; k < space.size(); ++k) x(i, k) = unit_points[i][k];
    }

    try {
      Stopwatch fit_watch;
      if (options_.hyperopt_every > 0 && iteration % options_.hyperopt_every == 0) {
        gp.fit_with_hyperopt(std::move(x), std::move(y), rng, options_.hyperopt_restarts,
                             options_.hyperopt_max_iters);
      } else {
        gp.fit(std::move(x), std::move(y));
      }
      if (traced) {
        telemetry->metrics()
            .histogram(obs::metric::kGpFitSeconds, obs::default_time_buckets())
            .observe(fit_watch.seconds());
      }
    } catch (const std::exception& e) {
      // Surrogate breakdown (e.g. all-identical targets): fall back to a
      // random valid evaluation and keep going — robustness over elegance.
      log_warn("bo: surrogate fit failed (", e.what(), "); random fallback");
      evaluate_and_record(space.sample_valid(rng));
      ++iteration;
      continue;
    }

    Stopwatch acq_watch;
    std::vector<double> proposal_unit = maximize_acquisition(
        gp, options_.acquisition, options_.acq_params, best_value, best_unit, rng,
        options_.maximizer, accept_unit);
    search::Config proposal = space.decode_unit(proposal_unit);

    // Duplicate handling for small/discrete spaces.
    std::size_t retries = 0;
    while (already_evaluated(evals, proposal) && retries < options_.duplicate_retries) {
      proposal_unit = maximize_acquisition(gp, options_.acquisition, options_.acq_params,
                                           best_value, best_unit, rng, options_.maximizer,
                                           accept_unit);
      proposal = space.decode_unit(proposal_unit);
      ++retries;
    }
    if (already_evaluated(evals, proposal)) {
      proposal = space.sample_valid(rng);
    }
    // Proposal-selection time including duplicate retries: each retry is a
    // full argmax, and their cost is what this histogram exists to expose.
    if (traced) {
      telemetry->metrics()
          .histogram(obs::metric::kAcqArgmaxSeconds, obs::default_time_buckets())
          .observe(acq_watch.seconds());
    }

    evaluate_and_record(proposal);
    ++iteration;
  }

  if (!options_.checkpoint_path.empty()) {
    db.save(options_.checkpoint_path);
  }

  // Package the result.
  search::SearchResult result;
  result.method = "bo";
  const auto evals = db.all();
  result.values.reserve(evals.size());
  for (const auto& e : evals) {
    result.values.push_back(e.value);
    if (std::isfinite(e.value) && e.value < result.best_value) {
      result.best_value = e.value;
      result.best_config = e.config;
    }
    result.trajectory.push_back(result.best_value);
  }
  result.evaluations = evals.size();
  result.seconds = watch.seconds();
  return result;
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
  // Separate streams: the search's random restarts draw from one, the
  // acquisition (multistarts, duplicate and failure fallbacks) from the
  // other, so searching never shifts what the acquisition draws.
  tunekit::Rng hyperopt_rng(options_.seed ^ 0xba7c4);
  tunekit::Rng rng(options_.seed ^ 0xac9f1);
  obs::Telemetry* telemetry = options_.telemetry;
  const bool traced = telemetry != nullptr && telemetry->enabled();

  // Observed data plus the growing liar set.
  std::vector<std::vector<double>> unit_points;
  std::vector<double> y;
  double best_value = std::numeric_limits<double>::infinity();
  std::vector<double> best_unit;
  for (const auto& e : evals) {
    if (!std::isfinite(e.value)) continue;  // failed evaluations carry no target
    unit_points.push_back(space.encode_unit(e.config));
    const double v = std::min(e.value, options_.timeout_value);
    y.push_back(v);
    if (v < best_value) {
      best_value = v;
      best_unit = unit_points.back();
    }
  }
  if (unit_points.empty()) {
    throw std::invalid_argument("BayesOpt::suggest_batch: no successful evaluations");
  }

  auto accept_unit = [&](const std::vector<double>& u) {
    return space.is_valid(space.decode_unit(u));
  };

  GaussianProcess gp(options_.kernel);
  if (options_.transfer) {
    const TransferPrior& prior = *options_.transfer;
    gp.set_prior_mean([&prior](const std::vector<double>& u) { return prior.mean_at(u); });
  }
  if (held) gp.set_hyperparams(*held);

  Batch out;
  std::vector<search::Evaluation> seen;
  for (const auto& e : evals) seen.push_back(e);

  for (std::size_t b = 0; b < k; ++b) {
    linalg::Matrix x(unit_points.size(), space.size());
    for (std::size_t i = 0; i < unit_points.size(); ++i) {
      for (std::size_t c = 0; c < space.size(); ++c) x(i, c) = unit_points[i][c];
    }
    try {
      Stopwatch fit_watch;
      if (b == 0 && search) {
        gp.fit_with_hyperopt(std::move(x), y, hyperopt_rng, options_.hyperopt_restarts,
                             options_.hyperopt_max_iters);
        out.searched = gp.hyperparams();
      } else {
        gp.fit(std::move(x), y);
      }
      if (traced) {
        telemetry->metrics()
            .histogram(obs::metric::kGpFitSeconds, obs::default_time_buckets())
            .observe(fit_watch.seconds());
      }
    } catch (const std::exception& e) {
      log_warn("bo: suggest_batch surrogate failed (", e.what(), "); random fill");
      out.configs.push_back(space.sample_valid(rng));
      continue;
    }

    Stopwatch acq_watch;
    auto proposal_unit =
        maximize_acquisition(gp, options_.acquisition, options_.acq_params, best_value,
                             best_unit, rng, options_.maximizer, accept_unit);
    search::Config proposal = space.decode_unit(proposal_unit);
    std::size_t retries = 0;
    while (already_evaluated(seen, proposal) && retries < options_.duplicate_retries) {
      proposal_unit =
          maximize_acquisition(gp, options_.acquisition, options_.acq_params, best_value,
                               best_unit, rng, options_.maximizer, accept_unit);
      proposal = space.decode_unit(proposal_unit);
      ++retries;
    }
    if (already_evaluated(seen, proposal)) proposal = space.sample_valid(rng);
    if (traced) {
      telemetry->metrics()
          .histogram(obs::metric::kAcqArgmaxSeconds, obs::default_time_buckets())
          .observe(acq_watch.seconds());
    }

    // Constant liar: pretend the proposal observed the incumbent best.
    unit_points.push_back(space.encode_unit(proposal));
    y.push_back(best_value);
    seen.push_back({proposal, best_value, 0.0});
    out.configs.push_back(std::move(proposal));
  }
  return out;
}

}  // namespace tunekit::bo
