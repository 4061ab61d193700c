// Table II reproduction: variability of Group 3's output for the five
// synthetic cases — the top-10 sensitive variables per case, computed with
// the paper's protocol (random baseline, 100 variations per parameter, each
// +10% over the previous).
//
// Shape to reproduce: Cases 1-2 dominated by Group 3's own variables
// (x10..x14), Case 3 balanced, Cases 4-5 dominated by Group 4's variables
// (x15..x19).

#include <iostream>

#include "common/table.hpp"
#include "core/methodology.hpp"
#include "synth/synth_app.hpp"

using namespace tunekit;

int main() {
  constexpr std::uint64_t kSeed = 12345;
  std::cout << "=== Table II: Group 3 output variability (baseline seed " << kSeed
            << ") ===\n";

  // One sensitivity report per case.
  std::vector<stats::SensitivityReport> reports;
  std::size_t observations = 0;
  for (int c = 1; c <= 5; ++c) {
    synth::SynthApp app(static_cast<synth::SynthCase>(c), 0.01, kSeed);
    stats::SensitivityOptions opt;
    opt.n_variations = 100;
    opt.ladder_factor = 1.10;
    stats::SensitivityAnalyzer analyzer(opt);
    reports.push_back(analyzer.analyze(app, app.space(), app.baseline()));
    observations += reports.back().observations;
  }

  // Paper layout: rows are x10..x19, columns are the cases.
  Table table({"Feature", "Case 1", "Case 2", "Case 3", "Case 4", "Case 5"});
  for (std::size_t p = 10; p <= 19; ++p) {
    std::vector<std::string> row{std::string("x").append(std::to_string(p))};
    for (const auto& report : reports) {
      row.push_back(Table::pct(report.score("Group3", p), 2));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.str();

  std::cout << "\nTop-10 sensitive variables per case (always Group 3 + Group 4 "
               "variables, as in the paper):\n";
  Table top({"Rank", "Case 1", "Case 2", "Case 3", "Case 4", "Case 5"});
  std::vector<std::vector<stats::SensitivityEntry>> tops;
  for (const auto& report : reports) tops.push_back(report.top("Group3", 10));
  for (std::size_t rank = 0; rank < 10; ++rank) {
    std::vector<std::string> row{std::to_string(rank + 1)};
    for (const auto& t : tops) row.push_back(t[rank].param_name);
    top.add_row(std::move(row));
  }
  std::cout << top.str();
  std::cout << "Total observations across all five analyses: " << observations << "\n";
  return 0;
}
