#include "search/result.hpp"

#include <cmath>

namespace tunekit::search {

SearchResult make_result(std::string method, const std::vector<Evaluation>& evals,
                         double seconds) {
  SearchResult result;
  result.method = std::move(method);
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
  result.seconds = seconds;
  return result;
}

}  // namespace tunekit::search
