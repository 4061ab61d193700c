// Table III reproduction: minima found and search time for the five
// synthetic cases under four strategies:
//
//   * Random Search (N = 200, trivially parallel),
//   * fully joint 20-dim BO  G1+G2+G3+G4 (N = 200),
//   * the methodology's split G1, G2, G3+G4 (N = 50, 50, 100 in parallel),
//   * fully independent BO   G1, G2, G3, G4 (N = 50 each, in parallel).
//
// "Minima found" is the full objective F evaluated at the combination of
// each strategy's best sub-configurations; "Time" for multi-search
// strategies is the slowest member (they run concurrently in the paper).
//
// Shape to reproduce: BO beats Random everywhere; the joint 20-dim search is
// by far the slowest and navigates poorly; the methodology's split matches
// or beats fully-independent on the interdependent cases (3, 4, 5) and ties
// on cases 1-2; both split strategies are ~an order of magnitude cheaper
// than the joint search.
//
// `--repeats N` (default 3) runs every case on seeds 1000 * case + 0..N-1
// and prints each minima cell as its median [first quartile, third
// quartile] over the repeats, each time cell as its median.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bo/bayes_opt.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "search/random_search.hpp"
#include "stats/descriptive.hpp"
#include "synth/synth_app.hpp"

using namespace tunekit;

namespace {

bo::BoOptions bo_options(std::size_t evals, std::uint64_t seed) {
  bo::BoOptions opt;
  opt.max_evals = evals;
  opt.n_init = 5;  // the paper starts training with 5 random configurations
  opt.seed = seed;
  opt.hyperopt_every = 10;
  opt.hyperopt_restarts = 1;
  opt.hyperopt_max_iters = 60;
  opt.maximizer.n_candidates = 256;
  opt.maximizer.refine_iters = 20;
  return opt;
}

struct StrategyResult {
  double minimum = 0.0;
  double seconds = 0.0;
};

/// One strategy's results on one case, across repeats.
struct Cell {
  std::vector<double> minima;
  std::vector<double> seconds;

  void add(const StrategyResult& r) {
    minima.push_back(r.minimum);
    seconds.push_back(r.seconds);
  }
  std::string minima_str() const {
    return Table::fmt(stats::median(minima), 1) + " [" +
           Table::fmt(stats::quantile(minima, 0.25), 1) + ", " +
           Table::fmt(stats::quantile(minima, 0.75), 1) + "]";
  }
  std::string seconds_str() const { return Table::fmt(stats::median(seconds), 2); }
};

/// Sub-search over one or more groups: tunes those groups' variables
/// against the sum of their log-transformed outputs, everything else frozen
/// at the baseline.
search::SearchResult run_group_search(synth::SynthApp& app,
                                      const std::vector<int>& groups, std::size_t evals,
                                      std::uint64_t seed) {
  std::vector<std::size_t> indices;
  for (int g : groups) {
    for (std::size_t i = 0; i < 5; ++i) indices.push_back(5 * (g - 1) + i);
  }
  search::FunctionObjective objective([&app, groups](const search::Config& c) {
    const auto values = app.function().evaluate_groups(c);
    double acc = 0.0;
    for (int g : groups) acc += values.groups[g - 1];
    return acc;
  });
  search::SubspaceObjective sub(objective, app.space(), indices, app.baseline());
  return bo::BayesOpt(bo_options(evals, seed)).run(sub, sub.space());
}

/// Compose group-search winners into a full config and evaluate F.
StrategyResult compose(synth::SynthApp& app,
                       const std::vector<std::vector<int>>& partition,
                       const std::vector<std::size_t>& budgets, std::uint64_t seed) {
  search::Config combined = app.baseline();
  double slowest = 0.0;
  for (std::size_t s = 0; s < partition.size(); ++s) {
    const auto result = run_group_search(app, partition[s], budgets[s], seed + 31 * s);
    slowest = std::max(slowest, result.seconds);
    std::size_t k = 0;
    for (int g : partition[s]) {
      for (std::size_t i = 0; i < 5; ++i) {
        combined[5 * (g - 1) + i] = result.best_config[k++];
      }
    }
  }
  return {app.function().evaluate(combined), slowest};
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t repeats = 3;
  if (argc == 3 && std::strcmp(argv[1], "--repeats") == 0) {
    repeats = std::strtoul(argv[2], nullptr, 10);
  } else if (argc != 1) {
    std::cerr << "usage: table3_synth_strategies [--repeats N]\n";
    return 2;
  }
  if (repeats == 0) {
    std::cerr << "--repeats needs at least 1\n";
    return 2;
  }
  std::cout << "=== Table III: minima found (median [q1, q3]) / search time (s, median), "
            << repeats << " runs ===\n";
  Table table({"Case", "Random minima", "Random t", "Joint BO minima", "Joint t",
               "G1,G2,G3+G4 minima", "G1,G2,G3+G4 t", "G1,G2,G3,G4 minima",
               "G1,G2,G3,G4 t", "Suggested"});

  for (int c = 1; c <= 5; ++c) {
    Cell random, joint, split, indep;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      const std::uint64_t seed = 1000 * static_cast<std::uint64_t>(c) + rep;
      synth::SynthApp app(static_cast<synth::SynthCase>(c), 0.01, 12345);

      // Random search over all 20 dims.
      {
        search::FunctionObjective objective(
            [&app](const search::Config& x) { return app.function().evaluate(x); });
        search::RandomSearchOptions opt;
        opt.max_evals = 200;
        opt.seed = seed;
        const auto r = search::RandomSearch(opt).run(objective, app.space());
        random.add({r.best_value, r.seconds});
      }

      // Fully joint 20-dim BO.
      {
        search::FunctionObjective objective(
            [&app](const search::Config& x) { return app.function().evaluate(x); });
        const auto r = bo::BayesOpt(bo_options(200, seed)).run(objective, app.space());
        joint.add({r.best_value, r.seconds});
      }

      // Methodology split: G1, G2, G3+G4 (N = 50, 50, 100).
      split.add(compose(app, {{1}, {2}, {3, 4}}, {50, 50, 100}, seed));

      // Fully independent: G1..G4 (N = 50 each).
      indep.add(compose(app, {{1}, {2}, {3}, {4}}, {50, 50, 50, 50}, seed));
    }

    const bool merged_suggested = c >= 3;  // methodology merges G3+G4 on cases 3-5
    table.add_row({"Case " + std::to_string(c), random.minima_str(), random.seconds_str(),
                   joint.minima_str(), joint.seconds_str(), split.minima_str(),
                   split.seconds_str(), indep.minima_str(), indep.seconds_str(),
                   merged_suggested ? "G1,G2,G3+G4" : "G1,G2,G3,G4"});
    std::cout << "finished case " << c << "\n";
  }
  std::cout << table.str();
  std::cout << "(multi-search strategies report the slowest member's time — the\n"
               " searches run concurrently; Random Search is embarrassingly\n"
               " parallel, matching the paper's observation)\n";
  return 0;
}
