#pragma once
// Union-find: the merge step behind graph::build_plan's routine groups
// (paper §IV-D, "routines that are linked to others by external parameters
// must be explored together"), the orthogonality groups and the online
// structure learner's coordinate cut.

#include <cstddef>
#include <vector>

namespace tunekit::graph {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  std::size_t find(std::size_t x);
  /// Returns true if the two sets were merged (false if already united).
  bool unite(std::size_t a, std::size_t b);
  bool connected(std::size_t a, std::size_t b);
  std::size_t n_sets() const { return n_sets_; }

  /// Members grouped by set, each group sorted, groups ordered by smallest
  /// member.
  std::vector<std::vector<std::size_t>> groups();

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> rank_;
  std::size_t n_sets_;
};

}  // namespace tunekit::graph
