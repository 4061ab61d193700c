#include "bo/dropout_bo.hpp"

#include <algorithm>

#include "bo/bayes_opt.hpp"

namespace tunekit::bo {

namespace {

/// A GP over this iteration's randomly chosen active dimensions.
class DropoutSurrogate final : public Surrogate {
 public:
  explicit DropoutSurrogate(const DropoutBoOptions& options) : options_(options) {}

  void fit(linalg::Matrix x, std::vector<double> y, bool search, tunekit::Rng& rng) override {
    const std::size_t d = std::min(options_.active_dims, x.cols());
    active_ = rng.sample_without_replacement(x.cols(), d);
    // Training inputs restricted to the active dimensions. The projection
    // makes the model myopic — exactly the weakness the paper points out.
    linalg::Matrix sub(x.rows(), d);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t k = 0; k < d; ++k) sub(r, k) = x(r, active_[k]);
    }
    if (search || gp_.dim() != d) gp_.set_hyperparams(GpHyperparams::isotropic(d));
    if (search) {
      gp_.fit_with_hyperopt(std::move(sub), std::move(y), rng, options_.hyperopt_restarts,
                            options_.hyperopt_max_iters);
    } else {
      gp_.fit(std::move(sub), std::move(y));
    }
  }

  /// Active coordinates from the acquisition (seeded by the incumbent's),
  /// dropped ones from the incumbent or at random.
  std::vector<double> propose(double best_value, const std::vector<double>& best_unit,
                              tunekit::Rng& rng, const UnitFilter&) override {
    std::vector<double> incumbent_active(active_.size());
    for (std::size_t k = 0; k < active_.size(); ++k) incumbent_active[k] = best_unit[active_[k]];
    const auto active_point =
        maximize_acquisition(gp_, options_.acquisition, options_.acq_params, best_value,
                             incumbent_active, rng, options_.maximizer, nullptr);
    std::vector<double> unit(best_unit.size());
    for (std::size_t i = 0; i < unit.size(); ++i) {
      unit[i] = options_.fill_from_best ? best_unit[i] : rng.uniform();
    }
    for (std::size_t k = 0; k < active_.size(); ++k) unit[active_[k]] = active_point[k];
    return unit;
  }

 private:
  const DropoutBoOptions& options_;
  GaussianProcess gp_{options_.kernel};
  std::vector<std::size_t> active_;
};

}  // namespace

search::SearchResult DropoutBo::run(search::Objective& objective,
                                    const search::SearchSpace& space) const {
  DropoutSurrogate surrogate(options_);
  search::EvalDb db;
  auto result = BayesOpt(loop_options(options_)).run(objective, space, db, surrogate);
  result.method = "dropout-bo";
  return result;
}

}  // namespace tunekit::bo
