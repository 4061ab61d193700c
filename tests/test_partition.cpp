#include "graph/partition.hpp"

#include <gtest/gtest.h>

namespace tunekit::graph {
namespace {

TEST(UnionFind, InitiallyDisjoint) {
  UnionFind uf(4);
  EXPECT_EQ(uf.n_sets(), 4u);
  EXPECT_FALSE(uf.connected(0, 1));
  EXPECT_TRUE(uf.connected(2, 2));
}

TEST(UnionFind, UniteAndFind) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // already connected
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  EXPECT_EQ(uf.n_sets(), 3u);
}

TEST(UnionFind, GroupsSortedAndComplete) {
  UnionFind uf(6);
  uf.unite(4, 2);
  uf.unite(5, 0);
  const auto groups = uf.groups();
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 5}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{1}));
  EXPECT_EQ(groups[2], (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(groups[3], (std::vector<std::size_t>{3}));
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(2);
  EXPECT_THROW(uf.find(2), std::out_of_range);
}

TEST(UnionFind, LongChainCollapses) {
  UnionFind uf(100);
  for (std::size_t i = 0; i + 1 < 100; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(uf.n_sets(), 1u);
  EXPECT_TRUE(uf.connected(0, 99));
}

}  // namespace
}  // namespace tunekit::graph
