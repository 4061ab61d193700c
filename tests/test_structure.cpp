// The living partition: online dependency-structure learning.
//
// Covers the four contracts of src/structure/:
//   * evidence — the affinity estimator separates genuinely coupled pairs
//     from additive ones, and the random-forest channel is bit-identical
//     regardless of fitting thread count;
//   * policy — hysteresis and cooldown gate repartitions (no thrashing,
//     no spurious re-cuts on a correctly-seeded run);
//   * adaptation — seeded with a deliberately wrong partition, the learner
//     re-cuts an AdditiveBo search mid-run and reaches the oracle
//     (static-correct) best within 1.5x its budget;
//   * durability — {"e":"struct"} journal records restore the learner
//     byte-for-byte across kill/resume, survive compaction, and legacy
//     journals without structure records still resume.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "bo/additive_bo.hpp"
#include "common/rng.hpp"
#include "service/session.hpp"
#include "service/session_store.hpp"
#include "stats/random_forest.hpp"
#include "structure/online_learner.hpp"

namespace tunekit {
namespace {

using structure::AffinityEstimator;
using structure::OnlineLearner;
using structure::OnlineLearnerOptions;
using structure::Partition;
using structure::RepartitionPolicy;
using structure::RepartitionPolicyOptions;

/// Coupled pair term with a genuine multiplicative cross term; unique
/// minimum 0 at a=0.4, b=0.6.
double pair_term(double a, double b) {
  const double u = a + b - 1.0;
  const double v = a - b + 0.2;
  return u * u + 0.5 * v * v;
}

// --- Affinity evidence -----------------------------------------------------

TEST(AffinityEstimator, SeparatesCoupledPairFromAdditiveDimensions) {
  // y couples (x0, x1); x2 and x3 contribute only additive terms.
  AffinityEstimator est(4, {});
  Rng rng(11);
  for (std::size_t r = 0; r < 80; ++r) {
    std::vector<double> u(4);
    for (auto& x : u) x = rng.uniform();
    est.observe(u, pair_term(u[0], u[1]) + (u[2] - 0.3) * (u[2] - 0.3) + 0.5 * u[3]);
  }
  est.refit();
  const auto& aff = est.affinity();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      if (i == 0 && j == 1) continue;
      EXPECT_GT(aff(0, 1), aff(i, j))
          << "pair (" << i << "," << j << ") outscored the coupled pair";
    }
  }
  EXPECT_GT(aff(0, 1), 0.3);
}

TEST(AffinityEstimator, SnapshotRoundTripsExactly) {
  AffinityEstimator est(3, {});
  Rng rng(5);
  for (std::size_t r = 0; r < 40; ++r) {
    std::vector<double> u{rng.uniform(), rng.uniform(), rng.uniform()};
    est.observe(u, pair_term(u[0], u[1]) + u[2]);
  }
  est.refit();
  const json::Value snap = est.to_json();

  AffinityEstimator restored(3, {});
  restored.restore(snap);
  EXPECT_EQ(restored.to_json().dump(), snap.dump());
  EXPECT_EQ(restored.observations(), est.observations());
}

TEST(RandomForest, ImportancesAreIdenticalAcrossThreadCounts) {
  Rng rng(21);
  linalg::Matrix x(120, 4);
  std::vector<double> y(120);
  for (std::size_t r = 0; r < 120; ++r) {
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.uniform();
    y[r] = 4.0 * x(r, 0) + std::sin(3.0 * x(r, 2));
  }

  stats::ForestOptions serial;
  serial.n_trees = 40;
  serial.seed = 77;
  serial.n_threads = 1;
  stats::ForestOptions parallel = serial;
  parallel.n_threads = 4;

  stats::RandomForest f1(serial), f4(parallel);
  f1.fit(x, y);
  f4.fit(x, y);
  const auto imp1 = f1.impurity_importance();
  const auto imp4 = f4.impurity_importance();
  ASSERT_EQ(imp1.size(), 4u);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_DOUBLE_EQ(imp1[f], imp4[f]) << "feature " << f;
  }
  // Regression pin: the dominant linear feature outranks everything, the
  // nonlinear one outranks both noise features, and the scores normalize.
  EXPECT_GT(imp1[0], 0.5);
  EXPECT_GT(imp1[2], imp1[1]);
  EXPECT_GT(imp1[2], imp1[3]);
  EXPECT_NEAR(imp1[0] + imp1[1] + imp1[2] + imp1[3], 1.0, 1e-9);
  // Predictions agree too — the whole forest is the same forest.
  EXPECT_DOUBLE_EQ(f1.predict({0.3, 0.7, 0.5, 0.1}), f4.predict({0.3, 0.7, 0.5, 0.1}));
}

// --- Partition utilities and the repartition policy ------------------------

TEST(PartitionUtils, NormalizeSortsBlocksAndMembers) {
  const Partition p{{5, 2}, {0, 4}, {3, 1}};
  const Partition n = structure::normalize_partition(p);
  const Partition expected{{0, 4}, {1, 3}, {2, 5}};
  EXPECT_EQ(n, expected);
}

TEST(RepartitionPolicy, RequiresConsecutiveConfirmations) {
  RepartitionPolicyOptions opt;
  opt.evidence_threshold = 0.1;
  opt.hysteresis = 2;
  opt.cooldown = 5;
  RepartitionPolicy policy(opt);
  const Partition proposal{{0, 1}, {2}};

  EXPECT_FALSE(policy.consider(proposal, 0.2, 10, 0));  // streak 1
  EXPECT_TRUE(policy.consider(proposal, 0.2, 11, 0));   // streak 2: adopt
  // Adoption resets the streak; the same proposal must re-confirm.
  EXPECT_FALSE(policy.consider(proposal, 0.2, 20, 11));
}

TEST(RepartitionPolicy, DifferentProposalResetsTheStreak) {
  RepartitionPolicyOptions opt;
  opt.evidence_threshold = 0.1;
  opt.hysteresis = 2;
  opt.cooldown = 0;
  RepartitionPolicy policy(opt);
  EXPECT_FALSE(policy.consider({{0, 1}, {2}}, 0.2, 1, 0));
  // A different winning cut restarts confirmation from scratch.
  EXPECT_FALSE(policy.consider({{0, 2}, {1}}, 0.2, 2, 0));
  EXPECT_TRUE(policy.consider({{0, 2}, {1}}, 0.2, 3, 0));
}

TEST(RepartitionPolicy, WeakEvidenceAndCooldownBlockAdoption) {
  RepartitionPolicyOptions opt;
  opt.evidence_threshold = 0.1;
  opt.hysteresis = 1;
  opt.cooldown = 10;
  RepartitionPolicy policy(opt);
  const Partition proposal{{0, 1}, {2}};
  // Below-threshold evidence never builds a streak.
  EXPECT_FALSE(policy.consider(proposal, 0.05, 20, 0));
  EXPECT_FALSE(policy.consider(proposal, 0.05, 21, 0));
  // Strong evidence inside the cooldown window is still held back.
  EXPECT_FALSE(policy.consider(proposal, 0.5, 25, 20));
  EXPECT_TRUE(policy.consider(proposal, 0.5, 31, 20));
}

TEST(OnlineLearner, SnapshotRoundTripsByteForByte) {
  OnlineLearnerOptions opt;
  opt.cadence = 10;
  opt.min_observations = 10;
  OnlineLearner learner(4, {{0}, {1}, {2}, {3}}, opt);
  Rng rng(9);
  for (std::size_t r = 0; r < 25; ++r) {
    std::vector<double> u{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    learner.observe(u, pair_term(u[0], u[1]) + u[2] + u[3]);
  }
  const json::Value snap = learner.snapshot();

  OnlineLearner restored(4, {{0}, {1}, {2}, {3}}, opt);
  restored.restore(snap);
  EXPECT_EQ(restored.snapshot().dump(), snap.dump());
  EXPECT_EQ(restored.observations(), learner.observations());
  EXPECT_EQ(restored.active_partition(), learner.active_partition());
}

// --- Mid-run adaptation through AdditiveBo's regroup hook ------------------

constexpr std::size_t kDims = 6;
const std::vector<std::vector<std::size_t>> kTrueBlocks{{0, 1}, {2, 3}, {4, 5}};
const std::vector<std::vector<std::size_t>> kWrongBlocks{{0, 3}, {1, 4}, {2, 5}};

search::SearchSpace unit_cube() {
  search::SearchSpace s;
  for (std::size_t i = 0; i < kDims; ++i) {
    s.add(search::ParamSpec::real(std::string("x").append(std::to_string(i)), 0.0, 1.0, 0.5));
  }
  return s;
}

search::FunctionObjective coupled_objective() {
  return search::FunctionObjective([](const search::Config& c) {
    return pair_term(c[0], c[1]) + pair_term(c[2], c[3]) + pair_term(c[4], c[5]);
  });
}

OnlineLearnerOptions adaptation_options() {
  OnlineLearnerOptions opt;
  opt.cadence = 10;
  opt.min_observations = 20;
  opt.affinity_threshold = 0.3;
  opt.policy.evidence_threshold = 0.15;
  opt.policy.hysteresis = 2;
  opt.policy.cooldown = 10;
  opt.affinity.forest.seed = 900 ^ 0xbeefull;
  return opt;
}

struct HookedRun {
  search::SearchResult result;
  std::size_t repartitions = 0;
};

HookedRun run_with_learner(const std::vector<std::vector<std::size_t>>& seed_blocks,
                           std::size_t budget, std::uint64_t seed) {
  auto obj = coupled_objective();
  const auto space = unit_cube();
  auto learner = std::make_shared<OnlineLearner>(kDims, seed_blocks,
                                                 adaptation_options());
  auto fed = std::make_shared<std::size_t>(0);
  bo::AdditiveBoOptions opt;
  opt.max_evals = budget;
  opt.seed = seed;
  opt.regroup_hook = [learner, fed](const std::vector<std::vector<double>>& units,
                                    const std::vector<double>& values)
      -> std::optional<std::vector<std::vector<std::size_t>>> {
    bool repartitioned = false;
    for (; *fed < values.size(); ++*fed) {
      repartitioned |= learner->observe(units[*fed], values[*fed]).repartitioned;
    }
    if (!repartitioned) return std::nullopt;
    return learner->active_partition();
  };
  HookedRun out{bo::AdditiveBo(seed_blocks, opt).run(obj, space), 0};
  out.repartitions = learner->repartitions();
  return out;
}

TEST(OnlineLearner, RecoversFromWrongPartitionWithin150PercentBudget) {
  const std::size_t budget = 60;
  const std::uint64_t seed = 900;  // mirrors bench_structure_adapt repeat 1

  // Oracle: AdditiveBo seeded with the true blocks at budget B.
  auto obj = coupled_objective();
  const auto space = unit_cube();
  bo::AdditiveBoOptions oracle_opt;
  oracle_opt.max_evals = budget;
  oracle_opt.seed = seed;
  const auto oracle = bo::AdditiveBo(kTrueBlocks, oracle_opt).run(obj, space);

  // Online: seeded with a partition that cuts every true pair, 1.5x budget.
  const HookedRun online = run_with_learner(kWrongBlocks, budget + budget / 2, seed);

  EXPECT_GE(online.repartitions, 1u)
      << "the learner never corrected the wrong seed partition";
  EXPECT_LE(online.result.best_value, oracle.best_value + 0.02)
      << "online repartition did not reach the oracle's best within 1.5x budget";
}

TEST(OnlineLearner, CorrectSeedTriggersNoSpuriousRepartition) {
  const HookedRun online = run_with_learner(kTrueBlocks, 90, 900);
  EXPECT_EQ(online.repartitions, 0u)
      << "hysteresis failed: a correctly-seeded run re-cut the partition";
}

}  // namespace

// --- Durability: {"e":"struct"} journal records ----------------------------

namespace service_durability {

using service::SessionBackend;
using service::SessionOptions;
using service::SessionStore;
using service::TuningSession;

search::SearchSpace four_dim_space() {
  search::SearchSpace s;
  for (int i = 0; i < 4; ++i) {
    s.add(search::ParamSpec::real(std::string("p").append(std::to_string(i)), 0.0, 1.0, 0.5));
  }
  return s;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SessionOptions structure_options(std::size_t max_evals) {
  SessionOptions opt;
  opt.max_evals = max_evals;
  opt.backend = SessionBackend::Random;
  opt.seed = 33;
  opt.structure_online = true;
  opt.structure_cadence = 5;
  return opt;
}

/// Drive `n` ask/tell rounds; the value couples the first two parameters so
/// refits produce a non-trivial affinity matrix.
void drive(TuningSession& session, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    auto batch = session.ask(1);
    ASSERT_EQ(batch.size(), 1u);
    const auto& c = batch[0].config;
    ASSERT_TRUE(session.tell(batch[0].id, pair_term(c[0], c[1]) + 0.3 * c[2]));
  }
}

TEST(StructureDurability, KillResumeRestoresSnapshotByteForByte) {
  const auto space = four_dim_space();
  const std::string journal = temp_path("tunekit_struct_kill.jsonl");
  std::filesystem::remove(journal);

  std::string live_dump;
  {
    TuningSession session(space, structure_options(64), journal);
    // 23 tells: refits land on cadence boundaries (10, 15, 20), leaving
    // three observations newer than the last journaled snapshot — the
    // resume path must rebuild those from the EvalDb, not lose them.
    drive(session, 23);
    live_dump = session.structure_snapshot().dump();
    // Drop without close(): the journal holds only what tell-time appended.
  }
  ASSERT_FALSE(live_dump.empty());

  auto resumed = TuningSession::resume(space, structure_options(64), journal);
  EXPECT_EQ(resumed->structure_snapshot().dump(), live_dump)
      << "resume did not restore the learned structure byte-for-byte";

  // The resumed learner keeps learning seamlessly: two more tells cross the
  // next cadence boundary and the snapshot advances.
  drive(*resumed, 2);
  const json::Value after = resumed->structure_snapshot();
  EXPECT_EQ(after.at("observations").as_int(), 25);
  std::filesystem::remove(journal);
}

TEST(StructureDurability, CompactionPreservesLatestSnapshot) {
  const auto space = four_dim_space();
  const std::string journal = temp_path("tunekit_struct_compact.jsonl");
  std::filesystem::remove(journal);

  SessionOptions opt = structure_options(64);
  opt.compact_every = 5;  // compact aggressively: many rewrites
  std::string live_dump;
  {
    TuningSession session(space, opt, journal);
    drive(session, 30);
    live_dump = session.structure_snapshot().dump();
  }

  // The compacted journal still replays a structure record...
  const auto replay = SessionStore::replay(journal, space);
  ASSERT_FALSE(replay.structure.is_null())
      << "compaction dropped the {\"e\":\"struct\"} record";
  // ...and the resumed learner state is exactly the pre-kill state.
  auto resumed = TuningSession::resume(space, opt, journal);
  EXPECT_EQ(resumed->structure_snapshot().dump(), live_dump);
  // The adoption history (inside the snapshot) survived the rewrites too.
  EXPECT_TRUE(resumed->structure_snapshot().contains("history"));
  std::filesystem::remove(journal);
}

TEST(StructureDurability, LegacyJournalWithoutStructureRecordsResumes) {
  const auto space = four_dim_space();
  const std::string journal = temp_path("tunekit_struct_legacy.jsonl");
  std::filesystem::remove(journal);

  // A journal written before structure learning existed (or with it off).
  SessionOptions legacy;
  legacy.max_evals = 64;
  legacy.backend = SessionBackend::Random;
  legacy.seed = 33;
  {
    TuningSession session(space, legacy, journal);
    drive(session, 12);
  }

  // Resuming with structure learning on back-fills the learner from the
  // EvalDb and journals a first snapshot (migration-safe).
  std::string first_dump;
  {
    auto resumed = TuningSession::resume(space, structure_options(64), journal);
    const json::Value snap = resumed->structure_snapshot();
    ASSERT_FALSE(snap.is_null());
    EXPECT_EQ(snap.at("observations").as_int(), 12);
    first_dump = snap.dump();
  }
  // A second resume restores that journaled snapshot exactly.
  auto again = TuningSession::resume(space, structure_options(64), journal);
  EXPECT_EQ(again->structure_snapshot().dump(), first_dump);
  std::filesystem::remove(journal);
}

}  // namespace service_durability
}  // namespace tunekit
