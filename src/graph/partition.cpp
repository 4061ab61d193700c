#include "graph/partition.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace tunekit::graph {

UnionFind::UnionFind(std::size_t n) : parent_(n), rank_(n, 0), n_sets_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
}

std::size_t UnionFind::find(std::size_t x) {
  if (x >= parent_.size()) throw std::out_of_range("UnionFind::find");
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t ra = find(a);
  std::size_t rb = find(b);
  if (ra == rb) return false;
  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  --n_sets_;
  return true;
}

bool UnionFind::connected(std::size_t a, std::size_t b) { return find(a) == find(b); }

std::vector<std::vector<std::size_t>> UnionFind::groups() {
  std::map<std::size_t, std::vector<std::size_t>> by_root;
  for (std::size_t i = 0; i < parent_.size(); ++i) by_root[find(i)].push_back(i);
  std::vector<std::vector<std::size_t>> out;
  out.reserve(by_root.size());
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

}  // namespace tunekit::graph
