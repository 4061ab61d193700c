#include "bo/additive_bo.hpp"

#include <stdexcept>

#include "bo/bayes_opt.hpp"
#include "common/log.hpp"

namespace tunekit::bo {

namespace {

/// The additive GP over the active decomposition, proposing group by group.
class AdditiveSurrogate final : public Surrogate {
 public:
  AdditiveSurrogate(std::vector<std::vector<std::size_t>> groups,
                    const AdditiveBoOptions& options)
      : options_(options), gp_(std::move(groups), options.kernel) {}

  void fit(linalg::Matrix x, std::vector<double> y, bool search, tunekit::Rng& rng) override {
    if (options_.regroup_hook) regroup(x, y);
    if (search) {
      gp_.fit_with_hyperopt(std::move(x), std::move(y), rng, options_.hyperopt_restarts,
                            options_.hyperopt_max_iters);
    } else {
      gp_.fit(std::move(x), std::move(y));
    }
  }

  /// Each group's component is optimized independently over candidate
  /// values of its coordinates; uncovered coordinates keep the incumbent's.
  std::vector<double> propose(double, const std::vector<double>& best_unit, tunekit::Rng& rng,
                              const UnitFilter&) override {
    std::vector<double> proposal = best_unit;
    const auto& groups = gp_.groups();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<double> best_coords;
      double best_score = -std::numeric_limits<double>::infinity();
      std::vector<double> candidate = proposal;
      for (std::size_t c = 0; c < options_.group_candidates; ++c) {
        for (std::size_t idx : groups[g]) candidate[idx] = rng.uniform();
        const auto pred = gp_.predict_group(g, candidate);
        // Per-group LCB: group contribution mean minus exploration bonus.
        const double score = acquisition_score(AcquisitionKind::LowerConfidenceBound,
                                               pred.mean, pred.stddev(), 0.0,
                                               options_.acq_params);
        if (score > best_score) {
          best_score = score;
          best_coords.clear();
          for (std::size_t idx : groups[g]) best_coords.push_back(candidate[idx]);
        }
      }
      std::size_t k = 0;
      for (std::size_t idx : groups[g]) proposal[idx] = best_coords[k++];
    }
    return proposal;
  }

 private:
  /// Migrate, don't discard: the archive is full-dimensional, so adopting
  /// the hook's decomposition only means refitting over the new groups.
  void regroup(const linalg::Matrix& x, const std::vector<double>& y) {
    std::vector<std::vector<double>> units(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) units[r] = x.row(r);
    auto revised = options_.regroup_hook(units, y);
    if (!revised || revised->empty() || *revised == gp_.groups()) return;
    for (const auto& g : *revised) {
      for (std::size_t idx : g) {
        if (idx >= x.cols()) return;
      }
    }
    log_info("additive-bo: adopting revised decomposition (", revised->size(), " groups, ",
             y.size(), " evals kept)");
    gp_ = AdditiveGp(std::move(*revised), options_.kernel);
  }

  const AdditiveBoOptions& options_;
  AdditiveGp gp_;
};

}  // namespace

AdditiveBo::AdditiveBo(std::vector<std::vector<std::size_t>> groups,
                       AdditiveBoOptions options)
    : groups_(std::move(groups)), options_(std::move(options)) {
  if (groups_.empty()) throw std::invalid_argument("AdditiveBo: no groups");
}

search::SearchResult AdditiveBo::run(search::Objective& objective,
                                     const search::SearchSpace& space) const {
  for (const auto& g : groups_) {
    for (std::size_t idx : g) {
      if (idx >= space.size()) {
        throw std::invalid_argument("AdditiveBo: group index out of range");
      }
    }
  }
  AdditiveSurrogate surrogate(groups_, options_);
  search::EvalDb db;
  auto result = BayesOpt(loop_options(options_)).run(objective, space, db, surrogate);
  result.method = "additive-bo";
  return result;
}

}  // namespace tunekit::bo
