// Online structure adaptation: static vs living partition on a mis-specified
// synthetic objective.
//
// The objective is a 6-dim sum of three coupled pair terms
//   h(a, b) = (a + b - 1)^2 + 0.5 (a - b + 0.2)^2
// over the true blocks {0,1} {2,3} {4,5} — each pair has a genuine
// multiplicative cross term (expand: the ab coefficients do not cancel), so
// an additive GP split across a pair cannot model it. Three arms:
//
//   static-correct — AdditiveBo seeded with the true blocks (the oracle).
//   static-wrong   — AdditiveBo seeded with a partition that cuts every true
//                    pair, never corrected (the paper's fixed Phase-1 cut
//                    when the analysis was wrong).
//   online-wrong   — the same wrong seed, but a structure::OnlineLearner
//                    watches the observation stream through the regroup hook
//                    and re-cuts the search mid-run.
//
// Emits BENCH_structure_adapt.json (override with TUNEKIT_BENCH_OUT):
// best-found-vs-evals trajectories per arm, every repartition event, and the
// acceptance summary (online must repartition >= 1x and reach the oracle's
// best within 1.5x its budget). Exits nonzero when the acceptance fails, so
// CI gates the adaptation behavior instead of eyeballing it.
//
// --smoke shrinks budgets/repeats for CI smoke runs (same gates).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bo/additive_bo.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "search/objective.hpp"
#include "search/space.hpp"
#include "structure/online_learner.hpp"

using namespace tunekit;

namespace {

constexpr std::size_t kDims = 6;

search::SearchSpace unit_cube() {
  search::SearchSpace s;
  for (std::size_t i = 0; i < kDims; ++i) {
    s.add(search::ParamSpec::real(std::string("x").append(std::to_string(i)), 0.0, 1.0, 0.5));
  }
  return s;
}

/// Pairwise-coupled objective; unique minimum 0 at a=0.4, b=0.6 per block.
double pair_term(double a, double b) {
  const double u = a + b - 1.0;
  const double v = a - b + 0.2;
  return u * u + 0.5 * v * v;
}

search::FunctionObjective coupled_objective() {
  return search::FunctionObjective([](const search::Config& c) {
    return pair_term(c[0], c[1]) + pair_term(c[2], c[3]) + pair_term(c[4], c[5]);
  });
}

const std::vector<std::vector<std::size_t>> kTrueBlocks{{0, 1}, {2, 3}, {4, 5}};
/// Every true pair is cut; every block pairs non-interacting coordinates.
const std::vector<std::vector<std::size_t>> kWrongBlocks{{0, 3}, {1, 4}, {2, 5}};

structure::OnlineLearnerOptions learner_options(std::uint64_t seed) {
  structure::OnlineLearnerOptions opt;
  opt.cadence = 10;
  opt.min_observations = 20;
  opt.affinity_threshold = 0.3;
  opt.policy.evidence_threshold = 0.15;
  opt.policy.hysteresis = 2;
  opt.policy.cooldown = 10;
  opt.affinity.forest.seed = seed ^ 0xbeefull;
  return opt;
}

struct RepartitionEvent {
  std::size_t eval = 0;
  structure::Partition partition;
};

struct ArmResult {
  std::vector<double> trajectory;  // best-found after each eval
  double best = 0.0;
  std::vector<RepartitionEvent> events;
};

ArmResult run_arm(const std::vector<std::vector<std::size_t>>& seed_blocks,
                  std::size_t budget, std::uint64_t seed, bool online) {
  auto obj = coupled_objective();
  const auto space = unit_cube();
  bo::AdditiveBoOptions opt;
  opt.max_evals = budget;
  opt.seed = seed;

  ArmResult out;
  std::shared_ptr<structure::OnlineLearner> learner;
  if (online) {
    learner = std::make_shared<structure::OnlineLearner>(
        kDims, seed_blocks, learner_options(seed));
    // The hook sees the cumulative archive; feed only the unseen tail.
    auto fed = std::make_shared<std::size_t>(0);
    opt.regroup_hook = [learner, fed, &out](
                           const std::vector<std::vector<double>>& units,
                           const std::vector<double>& values)
        -> std::optional<std::vector<std::vector<std::size_t>>> {
      bool repartitioned = false;
      for (; *fed < values.size(); ++*fed) {
        repartitioned |= learner->observe(units[*fed], values[*fed]).repartitioned;
      }
      if (!repartitioned) return std::nullopt;
      out.events.push_back({learner->last_repartition_eval(),
                            learner->active_partition()});
      return learner->active_partition();
    };
  }

  const auto result = bo::AdditiveBo(seed_blocks, opt).run(obj, space);
  out.trajectory = result.trajectory;
  out.best = result.best_value;
  return out;
}

json::Value trajectory_json(const std::vector<double>& t) {
  json::Array a;
  a.reserve(t.size());
  for (double v : t) a.emplace_back(v);
  return json::Value(std::move(a));
}

json::Value events_json(const std::vector<RepartitionEvent>& events) {
  json::Array a;
  for (const auto& e : events) {
    json::Object o;
    o["eval"] = json::Value(static_cast<double>(e.eval));
    json::Array blocks;
    for (const auto& block : e.partition) {
      json::Array b;
      for (std::size_t i : block) b.emplace_back(static_cast<double>(i));
      blocks.emplace_back(std::move(b));
    }
    o["partition"] = json::Value(std::move(blocks));
    a.emplace_back(std::move(o));
  }
  return json::Value(std::move(a));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // Budget 60 is where a wrong cut hurts most: at long budgets even the
  // mis-specified additive GP stumbles onto good points and the arms blur.
  const std::size_t budget = 60;
  const std::size_t online_budget = budget + budget / 2;  // the 1.5x allowance
  const std::size_t repeats = smoke ? 1 : 3;

  std::printf("=== Structure adaptation: static vs online repartition ===\n");
  std::printf("(oracle budget %zu, online budget %zu, %zu repeat%s%s)\n\n",
              budget, online_budget, repeats, repeats == 1 ? "" : "s",
              smoke ? ", smoke" : "");

  json::Array runs;
  double correct_sum = 0.0, wrong_sum = 0.0, online_sum = 0.0;
  std::size_t total_repartitions = 0;

  for (std::size_t rep = 0; rep < repeats; ++rep) {
    const std::uint64_t seed = 900 + rep;
    const ArmResult correct = run_arm(kTrueBlocks, budget, seed, false);
    const ArmResult wrong = run_arm(kWrongBlocks, online_budget, seed, false);
    const ArmResult online = run_arm(kWrongBlocks, online_budget, seed, true);

    correct_sum += correct.best;
    wrong_sum += wrong.best;
    online_sum += online.best;
    total_repartitions += online.events.size();

    json::Object run;
    run["seed"] = json::Value(static_cast<double>(seed));
    run["static_correct"] = trajectory_json(correct.trajectory);
    run["static_wrong"] = trajectory_json(wrong.trajectory);
    run["online_wrong"] = trajectory_json(online.trajectory);
    run["repartitions"] = events_json(online.events);
    runs.emplace_back(std::move(run));

    std::printf("repeat %zu: correct=%.4f wrong=%.4f online=%.4f "
                "(repartitions: %zu)\n",
                rep + 1, correct.best, wrong.best, online.best,
                online.events.size());
  }

  const double n = static_cast<double>(repeats);
  Table table({"Arm", "Budget", "Best F (avg)"});
  table.add_row({"static correct (oracle)", std::to_string(budget),
                 Table::fmt(correct_sum / n, 4)});
  table.add_row({"static wrong", std::to_string(online_budget),
                 Table::fmt(wrong_sum / n, 4)});
  table.add_row({"online repartition", std::to_string(online_budget),
                 Table::fmt(online_sum / n, 4)});
  std::printf("\n%s", table.str().c_str());

  json::Object bench;
  bench["bench"] = json::Value(std::string("structure_adapt"));
  bench["dims"] = json::Value(static_cast<double>(kDims));
  bench["budget"] = json::Value(static_cast<double>(budget));
  bench["online_budget"] = json::Value(static_cast<double>(online_budget));
  bench["repeats"] = json::Value(static_cast<double>(repeats));
  bench["smoke"] = json::Value(smoke);
  bench["static_correct_best_avg"] = json::Value(correct_sum / n);
  bench["static_wrong_best_avg"] = json::Value(wrong_sum / n);
  bench["online_best_avg"] = json::Value(online_sum / n);
  bench["repartitions_total"] = json::Value(static_cast<double>(total_repartitions));
  bench["runs"] = json::Value(std::move(runs));

  const char* out_env = std::getenv("TUNEKIT_BENCH_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "BENCH_structure_adapt.json";
  std::ofstream out(out_path);
  out << json::Value(std::move(bench)).dump(2) << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  if (total_repartitions == 0) {
    std::fprintf(stderr, "FAIL: the online arm never repartitioned\n");
    return 1;
  }
  // Acceptance gate on the averages (per-repeat GP noise is too large to
  // gate single runs): within 1.5x the oracle's budget the online arm must
  // reach the oracle's best-found, with a small absolute slack.
  if (online_sum / n > correct_sum / n + 0.02) {
    std::fprintf(stderr,
                 "FAIL: online arm (avg %.4f) did not reach the oracle's best "
                 "(avg %.4f) within 1.5x its budget\n",
                 online_sum / n, correct_sum / n);
    return 1;
  }
  return 0;
}
