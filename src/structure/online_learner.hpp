#pragma once
// The living partition: an online dependency-structure learner that watches
// the observation stream, maintains a parameter-affinity matrix
// (structure::AffinityEstimator), and proposes a revised coordinate cut via
// the same union-find partitioning the paper's Phase-4 uses for routines.
// A RepartitionPolicy (evidence threshold + hysteresis + cooldown) decides
// when the search should actually adopt the new decomposition, so the
// partition adapts without thrashing.
//
// The learner is engine-agnostic: TuningSession feeds it at tell time and
// journals its snapshots as {"e":"struct"} records; AdditiveBo adopts its
// decisions through a regroup hook; the bench drives it directly.

#include <cstddef>
#include <optional>
#include <vector>

#include "common/json.hpp"
#include "structure/affinity.hpp"

namespace tunekit::structure {

using Partition = std::vector<std::vector<std::size_t>>;

/// Canonical form: every block sorted, blocks ordered by smallest member.
/// Two partitions are equal iff their normalized forms are equal.
Partition normalize_partition(Partition partition);

/// Correlation-clustering cost of a partition: cut pairs pay their affinity
/// above `threshold`, within-block pairs pay the shortfall below it. The
/// threshold is the indifference point, so merging blocks on weak edges
/// *costs* instead of paying, and the trivial one-block partition is not a
/// universal attractor.
double partition_cost(const linalg::Matrix& affinity, const Partition& partition,
                      double threshold);

struct RepartitionPolicyOptions {
  /// Minimum evidence for a re-cut: the fraction of the total pair tension
  /// (sum of |affinity - threshold| over all pairs) the proposal's
  /// partition_cost recovers relative to the current partition's.
  double evidence_threshold = 0.10;
  /// Consecutive refits that must agree on the same proposal.
  std::size_t hysteresis = 2;
  /// Minimum observations between adoptions (and before the first).
  std::size_t cooldown = 20;
};

/// Hysteresis state machine: adopt a proposal only after it has been
/// confirmed by `hysteresis` consecutive refits, each clearing the evidence
/// threshold, and not within `cooldown` observations of the last adoption.
class RepartitionPolicy {
 public:
  explicit RepartitionPolicy(RepartitionPolicyOptions options = {})
      : options_(options) {}

  /// Feed one refit's proposal; returns true when it should be adopted now.
  bool consider(const Partition& proposal, double evidence,
                std::size_t observations, std::size_t last_adoption);

  const RepartitionPolicyOptions& options() const { return options_; }
  std::size_t streak() const { return streak_; }
  const std::optional<Partition>& pending() const { return pending_; }

  json::Value to_json() const;
  void restore(const json::Value& state);

 private:
  RepartitionPolicyOptions options_;
  std::size_t streak_ = 0;
  std::optional<Partition> pending_;
};

struct OnlineLearnerOptions {
  /// Refit the affinity sources every `cadence` observations.
  std::size_t cadence = 20;
  /// Observations required before the first refit.
  std::size_t min_observations = 24;
  /// Affinity above which a pair is united in the proposed cut.
  double affinity_threshold = 0.25;
  AffinityOptions affinity;
  RepartitionPolicyOptions policy;
};

/// What one observe() call did.
struct StructureEvent {
  bool refit = false;
  bool repartitioned = false;
  /// Evidence of the (adopted or rejected) proposal at the last refit.
  double evidence = 0.0;
  /// Seconds spent in the refit (0 when no refit ran).
  double refit_seconds = 0.0;
};

class OnlineLearner {
 public:
  OnlineLearner(std::size_t dims, Partition initial, OnlineLearnerOptions options = {});

  /// Feed one completed observation (unit-cube coordinates + objective
  /// value). May trigger a refit and, through the policy, a repartition.
  StructureEvent observe(const std::vector<double>& unit, double value);

  /// True when the next observe() call will run a batch refit (lets callers
  /// open a telemetry span around it).
  bool refit_due() const;

  std::size_t dims() const { return dims_; }
  const Partition& active_partition() const { return partition_; }
  const AffinityEstimator& estimator() const { return estimator_; }

  std::size_t observations() const { return estimator_.observations(); }
  std::size_t refits() const { return refits_; }
  std::size_t repartitions() const { return repartitions_; }
  std::size_t last_repartition_eval() const { return last_repartition_eval_; }
  std::size_t evals_since_repartition() const;
  std::size_t largest_block() const;

  /// Complete learner state (estimator, policy, counters, partition history).
  /// snapshot() after restore(snapshot()) is byte-for-byte identical.
  json::Value snapshot() const;
  void restore(const json::Value& state);

  /// Refill the estimator's batch archive after restore() (the snapshot
  /// deliberately omits raw observations — the session's EvalDb is the
  /// durable source of truth for those).
  void seed_archive(const std::vector<std::vector<double>>& units,
                    const std::vector<double>& values);

 private:
  Partition propose() const;

  std::size_t dims_;
  OnlineLearnerOptions options_;
  Partition partition_;
  AffinityEstimator estimator_;
  RepartitionPolicy policy_;

  std::size_t refits_ = 0;
  std::size_t repartitions_ = 0;
  std::size_t last_repartition_eval_ = 0;
  /// Adoption log: the initial cut plus one entry per repartition, each with
  /// the eval index and evidence. Survives compaction because it rides
  /// inside every snapshot.
  json::Array history_;
};

}  // namespace tunekit::structure
