#include "structure/online_learner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stopwatch.hpp"
#include "graph/partition.hpp"

namespace tunekit::structure {

namespace {

json::Value partition_to_json(const Partition& partition) {
  json::Array blocks;
  blocks.reserve(partition.size());
  for (const auto& block : partition) {
    json::Array members;
    members.reserve(block.size());
    for (std::size_t idx : block) members.push_back(json::Value(idx));
    blocks.push_back(json::Value(std::move(members)));
  }
  return json::Value(std::move(blocks));
}

Partition partition_from_json(const json::Value& v) {
  Partition out;
  for (const auto& block : v.as_array()) {
    std::vector<std::size_t> members;
    for (const auto& idx : block.as_array()) {
      members.push_back(static_cast<std::size_t>(idx.as_int()));
    }
    out.push_back(std::move(members));
  }
  return out;
}

}  // namespace

Partition normalize_partition(Partition partition) {
  for (auto& block : partition) std::sort(block.begin(), block.end());
  std::sort(partition.begin(), partition.end(),
            [](const auto& a, const auto& b) {
              if (a.empty() || b.empty()) return b.empty() && !a.empty();
              return a.front() < b.front();
            });
  partition.erase(std::remove_if(partition.begin(), partition.end(),
                                 [](const auto& b) { return b.empty(); }),
                  partition.end());
  return partition;
}

double partition_cost(const linalg::Matrix& affinity, const Partition& partition,
                      double threshold) {
  const std::size_t dims = affinity.rows();
  std::vector<std::size_t> block_of(dims, static_cast<std::size_t>(-1));
  for (std::size_t b = 0; b < partition.size(); ++b) {
    for (std::size_t idx : partition[b]) {
      if (idx < dims) block_of[idx] = b;
    }
  }
  double cost = 0.0;
  for (std::size_t i = 0; i < dims; ++i) {
    for (std::size_t j = i + 1; j < dims; ++j) {
      if (block_of[i] != block_of[j]) {
        cost += std::max(0.0, affinity(i, j) - threshold);
      } else {
        cost += std::max(0.0, threshold - affinity(i, j));
      }
    }
  }
  return cost;
}

bool RepartitionPolicy::consider(const Partition& proposal, double evidence,
                                 std::size_t observations,
                                 std::size_t last_adoption) {
  if (evidence < options_.evidence_threshold) {
    streak_ = 0;
    pending_.reset();
    return false;
  }
  if (pending_ && *pending_ == proposal) {
    ++streak_;
  } else {
    pending_ = proposal;
    streak_ = 1;
  }
  if (streak_ < options_.hysteresis) return false;
  // Cooldown counts from the last adoption (or from the session start).
  if (observations < last_adoption + options_.cooldown) return false;
  streak_ = 0;
  pending_.reset();
  return true;
}

json::Value RepartitionPolicy::to_json() const {
  json::Object obj;
  obj["streak"] = json::Value(streak_);
  obj["pending"] = pending_ ? partition_to_json(*pending_) : json::Value();
  return json::Value(std::move(obj));
}

void RepartitionPolicy::restore(const json::Value& state) {
  streak_ = static_cast<std::size_t>(state.at("streak").as_int());
  const auto& pending = state.at("pending");
  if (pending.is_null()) {
    pending_.reset();
  } else {
    pending_ = partition_from_json(pending);
  }
}

OnlineLearner::OnlineLearner(std::size_t dims, Partition initial,
                             OnlineLearnerOptions options)
    : dims_(dims),
      options_(options),
      partition_(normalize_partition(std::move(initial))),
      estimator_(dims, options.affinity),
      policy_(options.policy) {
  if (partition_.empty()) {
    // Default: every parameter independent; the learner merges from there.
    for (std::size_t i = 0; i < dims_; ++i) partition_.push_back({i});
  }
  json::Object entry;
  entry["kind"] = json::Value("init");
  entry["eval"] = json::Value(std::size_t{0});
  entry["evidence"] = json::Value(0.0);
  entry["blocks"] = json::Value(partition_.size());
  entry["partition"] = partition_to_json(partition_);
  history_.push_back(json::Value(std::move(entry)));
}

std::size_t OnlineLearner::evals_since_repartition() const {
  const std::size_t n = estimator_.observations();
  return n >= last_repartition_eval_ ? n - last_repartition_eval_ : 0;
}

std::size_t OnlineLearner::largest_block() const {
  std::size_t best = 0;
  for (const auto& block : partition_) best = std::max(best, block.size());
  return best;
}

Partition OnlineLearner::propose() const {
  graph::UnionFind uf(dims_);
  const auto& a = estimator_.affinity();
  for (std::size_t i = 0; i < dims_; ++i) {
    for (std::size_t j = i + 1; j < dims_; ++j) {
      if (a(i, j) > options_.affinity_threshold) uf.unite(i, j);
    }
  }
  return uf.groups();
}

bool OnlineLearner::refit_due() const {
  const std::size_t n = estimator_.observations() + 1;
  return options_.cadence != 0 && n >= options_.min_observations &&
         n % options_.cadence == 0;
}

StructureEvent OnlineLearner::observe(const std::vector<double>& unit,
                                      double value) {
  estimator_.observe(unit, value);
  StructureEvent event;

  const std::size_t n = estimator_.observations();
  if (n < options_.min_observations) return event;
  if (options_.cadence == 0 || n % options_.cadence != 0) return event;

  Stopwatch watch;
  estimator_.refit(options_.min_observations);
  ++refits_;
  event.refit = true;

  const Partition proposal = propose();
  const auto& a = estimator_.affinity();
  const double t = options_.affinity_threshold;
  // Total pair tension bounds any partition's cost, so the evidence is the
  // normalized cost reduction in [-1, 1].
  double tension = 0.0;
  for (std::size_t i = 0; i < dims_; ++i) {
    for (std::size_t j = i + 1; j < dims_; ++j) {
      tension += std::abs(a(i, j) - t);
    }
  }
  const double gain =
      partition_cost(a, partition_, t) - partition_cost(a, proposal, t);
  event.evidence = tension > 1e-12 ? gain / tension : 0.0;

  if (proposal != partition_ &&
      policy_.consider(proposal, event.evidence, n, last_repartition_eval_)) {
    partition_ = proposal;
    ++repartitions_;
    last_repartition_eval_ = n;
    event.repartitioned = true;
    json::Object entry;
    entry["kind"] = json::Value("repartition");
    entry["eval"] = json::Value(n);
    entry["evidence"] = json::Value(event.evidence);
    entry["blocks"] = json::Value(partition_.size());
    entry["partition"] = partition_to_json(partition_);
    history_.push_back(json::Value(std::move(entry)));
  }
  event.refit_seconds = watch.seconds();
  return event;
}

json::Value OnlineLearner::snapshot() const {
  json::Object obj;
  obj["dims"] = json::Value(dims_);
  obj["observations"] = json::Value(estimator_.observations());
  obj["refits"] = json::Value(refits_);
  obj["repartitions"] = json::Value(repartitions_);
  obj["last_repartition_eval"] = json::Value(last_repartition_eval_);
  obj["partition"] = partition_to_json(partition_);
  obj["estimator"] = estimator_.to_json();
  obj["policy"] = policy_.to_json();
  obj["history"] = json::Value(history_);
  return json::Value(std::move(obj));
}

void OnlineLearner::restore(const json::Value& state) {
  if (static_cast<std::size_t>(state.at("dims").as_int()) != dims_) {
    throw std::invalid_argument("OnlineLearner::restore: dim mismatch");
  }
  refits_ = static_cast<std::size_t>(state.at("refits").as_int());
  repartitions_ = static_cast<std::size_t>(state.at("repartitions").as_int());
  last_repartition_eval_ =
      static_cast<std::size_t>(state.at("last_repartition_eval").as_int());
  partition_ = partition_from_json(state.at("partition"));
  estimator_.restore(state.at("estimator"));
  policy_.restore(state.at("policy"));
  history_ = state.at("history").as_array();
}

void OnlineLearner::seed_archive(const std::vector<std::vector<double>>& units,
                                 const std::vector<double>& values) {
  estimator_.seed_archive(units, values);
}

}  // namespace tunekit::structure
