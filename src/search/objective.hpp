#pragma once
// Objective abstractions. All objectives are minimized.
//
// RegionTimes carries per-routine timings: the methodology's sensitivity
// analysis needs to know how each parameter variation moved *each routine's*
// runtime, not just the total (paper §IV-C).
//
// SubspaceObjective embeds a lower-dimensional search into a full-space
// objective: searched coordinates come from the sub-config, everything else
// is frozen at a base configuration. This is how the methodology turns one
// 20-dimensional problem into the optimized set of ≤10-dimensional searches.

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "search/space.hpp"

namespace tunekit::search {

/// Cooperative-cancellation flag shared between a watchdog and the
/// evaluation it guards. Copies share state; cancel() is visible to every
/// holder. Long-running objectives should poll cancelled() at convenient
/// points and abandon the run (throw, or return any value — a cancelled
/// evaluation's result is discarded by the watchdog).
class CancelFlag {
 public:
  CancelFlag() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-routine timing result of one application evaluation.
struct RegionTimes {
  std::map<std::string, double> regions;
  double total = 0.0;

  double region_or_total(const std::string& name) const {
    if (name.empty() || name == "total") return total;
    auto it = regions.find(name);
    return it == regions.end() ? total : it->second;
  }
};

/// Scalar objective to minimize.
class Objective {
 public:
  virtual ~Objective() = default;

  virtual double evaluate(const Config& config) = 0;

  /// Evaluate under a cooperative-cancellation flag (set by a watchdog when
  /// the call overruns its deadline). The default ignores the flag; override
  /// in objectives that can abort a long run early.
  virtual double evaluate_cancellable(const Config& config, const CancelFlag& cancel) {
    (void)cancel;
    return evaluate(config);
  }

  /// True if evaluate() may be called concurrently from several threads.
  virtual bool thread_safe() const { return false; }
};

/// Objective that also reports per-region timings.
class RegionObjective : public Objective {
 public:
  virtual RegionTimes evaluate_regions(const Config& config) = 0;

  /// Cancellable variant of evaluate_regions; default ignores the flag.
  virtual RegionTimes evaluate_regions_cancellable(const Config& config,
                                                   const CancelFlag& cancel) {
    (void)cancel;
    return evaluate_regions(config);
  }

  double evaluate(const Config& config) override { return evaluate_regions(config).total; }
  double evaluate_cancellable(const Config& config, const CancelFlag& cancel) override {
    return evaluate_regions_cancellable(config, cancel).total;
  }
};

/// Wrap a plain function as an Objective.
class FunctionObjective final : public Objective {
 public:
  explicit FunctionObjective(std::function<double(const Config&)> fn,
                             bool thread_safe = true)
      : fn_(std::move(fn)), thread_safe_(thread_safe) {}

  double evaluate(const Config& config) override { return fn_(config); }
  bool thread_safe() const override { return thread_safe_; }

 private:
  std::function<double(const Config&)> fn_;
  bool thread_safe_;
};

/// Restriction of a full-space objective to a subset of its parameters.
///
/// The subspace inherits a single "parent-valid" constraint that embeds the
/// sub-config into the base configuration and checks the full space's
/// constraints, so samplers and BO only propose sub-configs whose embedding
/// is feasible.
class SubspaceObjective final : public Objective {
 public:
  /// `indices[i]` is the full-space parameter index of subspace coordinate i.
  SubspaceObjective(Objective& inner, const SearchSpace& full_space,
                    std::vector<std::size_t> indices, Config base);

  // The subspace constraint captures `this`; the object must stay put.
  SubspaceObjective(const SubspaceObjective&) = delete;
  SubspaceObjective& operator=(const SubspaceObjective&) = delete;

  const SearchSpace& space() const { return sub_space_; }
  const std::vector<std::size_t>& indices() const { return indices_; }

  /// Write the sub-config coordinates into a copy of the base config.
  Config embed(const Config& sub) const;

  /// Update the frozen coordinates (e.g. after an earlier search in the plan
  /// fixed some parameters to their tuned values).
  void set_base(Config base);
  const Config& base() const { return base_; }

  double evaluate(const Config& sub) override { return inner_.evaluate(embed(sub)); }
  double evaluate_cancellable(const Config& sub, const CancelFlag& cancel) override {
    return inner_.evaluate_cancellable(embed(sub), cancel);
  }
  bool thread_safe() const override { return inner_.thread_safe(); }

 private:
  Objective& inner_;
  const SearchSpace& full_space_;
  std::vector<std::size_t> indices_;
  Config base_;
  SearchSpace sub_space_;
};

}  // namespace tunekit::search
