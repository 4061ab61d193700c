#include "synth/synth_app.hpp"

#include <cmath>
#include <string>

#include "common/rng.hpp"

namespace tunekit::synth {

SynthApp::SynthApp(SynthCase which, double noise_scale, std::uint64_t baseline_seed)
    : fn_(which, noise_scale, baseline_seed ^ 0x5117a17e) {
  for (std::size_t i = 0; i < SyntheticFunction::kDim; ++i) {
    // Not "x" + std::to_string(i), which GCC 12 at -O3 misreads as an
    // overlapping copy (-Wrestrict).
    space_.add(search::ParamSpec::real(std::string("x").append(std::to_string(i)),
                                       SyntheticFunction::kLo, SyntheticFunction::kHi, 1.0));
  }
  // Random baseline from the domain-expert band |x| in [2, 15] (methodology
  // step 1: experts center the analysis on a non-degenerate operating
  // point). Re-sample until every group's raw output is well away from
  // zero — relative variability is undefined around a zero crossing.
  tunekit::Rng rng(baseline_seed);
  baseline_.resize(SyntheticFunction::kDim);
  for (int tries = 0; tries < 1000; ++tries) {
    for (auto& v : baseline_) {
      v = rng.uniform(2.0, 15.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0);
    }
    const auto raw = fn_.raw_abs_groups(baseline_);
    bool ok = true;
    for (double g : raw) ok = ok && g >= 0.1;
    if (ok) break;
  }
}

std::string SynthApp::group_region(std::size_t g) { return "Group" + std::to_string(g); }

std::vector<core::RoutineSpec> SynthApp::routines() const {
  std::vector<core::RoutineSpec> out;
  for (std::size_t g = 0; g < 4; ++g) {
    core::RoutineSpec spec;
    spec.name = group_region(g + 1);
    for (std::size_t i = 0; i < 5; ++i) spec.params.push_back(5 * g + i);
    out.push_back(std::move(spec));
  }
  return out;
}

std::string SynthApp::name() const {
  return std::string("synthetic ") + to_string(fn_.which());
}

search::RegionTimes SynthApp::evaluate_regions(const search::Config& config) {
  // Regions carry the |raw| group outputs (the quantity whose variability
  // Table II reports and whose relative changes drive the influence graph);
  // the total is the paper's objective, the sum of log-transformed groups.
  const auto raw = fn_.raw_abs_groups(config);
  const GroupValues values = fn_.evaluate_groups(config);
  search::RegionTimes t;
  for (std::size_t g = 0; g < 4; ++g) {
    t.regions[group_region(g + 1)] = raw[g];
  }
  t.total = values.total();
  return t;
}

}  // namespace tunekit::synth
