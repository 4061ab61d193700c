#pragma once
// Result type shared by every search driver (random, grid, BO).

#include <limits>
#include <string>
#include <vector>

#include "search/eval_db.hpp"
#include "search/space.hpp"

namespace tunekit::search {

struct SearchResult {
  /// Label set by the driver ("random", "grid", "bo").
  std::string method;

  Config best_config;
  double best_value = std::numeric_limits<double>::infinity();

  /// Objective value of each evaluation in order.
  std::vector<double> values;

  /// Best-so-far after each evaluation (the Figure 6 series).
  std::vector<double> trajectory;

  std::size_t evaluations = 0;
  double seconds = 0.0;

  bool found() const { return evaluations > 0 && best_config.size() > 0; }
};

/// A driver's result from its evaluation history: every value in order, the
/// best finite one, and the best-so-far trajectory.
SearchResult make_result(std::string method, const std::vector<Evaluation>& evals,
                         double seconds);

}  // namespace tunekit::search
