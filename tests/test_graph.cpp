#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace beepmis::graph {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(GraphBuilder, NodesWithoutEdges) {
  const Graph g = GraphBuilder(5).build();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(GraphBuilder, Triangle) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(GraphBuilder, DuplicateEdgesMerged) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

/// The CSR of `edges` on n nodes by sort-and-unique over both orientations.
std::pair<std::vector<std::uint32_t>, std::vector<NodeId>> reference_csr(
    NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::pair<NodeId, NodeId>> entries;
  for (const auto& [u, v] : edges) {
    entries.emplace_back(u, v);
    entries.emplace_back(v, u);
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  std::vector<std::uint32_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<NodeId> adjacency;
  for (const auto& [u, v] : entries) {
    ++offsets[u + 1];
    adjacency.push_back(v);
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  return {offsets, adjacency};
}

TEST(GraphBuilder, MatchesSortAndUniqueReference) {
  // Random edge lists with repeats in both orientations, on node counts
  // whose tail ids stay isolated.
  auto rng = support::Xoshiro256StarStar(2005);
  for (const NodeId n : {0u, 1u, 2u, 1000u}) {
    for (const std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{3000}}) {
      if (n < 2 && m > 0) continue;
      // Edges touch only the first half of the ids (both ids when n == 2).
      const NodeId span = n == 2 ? 2 : n / 2;
      std::vector<std::pair<NodeId, NodeId>> edges;
      GraphBuilder builder(n);
      for (std::size_t i = 0; i < m; ++i) {
        auto u = static_cast<NodeId>(rng.below(span));
        auto v = static_cast<NodeId>(rng.below(span - 1));
        if (v >= u) ++v;
        edges.emplace_back(u, v);
        builder.add_edge(u, v);
        if (rng.below(4) == 0) {  // a repeat, in a random orientation
          if (rng.below(2) == 0) std::swap(u, v);
          edges.emplace_back(u, v);
          builder.add_edge(u, v);
        }
      }
      const auto [offsets, adjacency] = reference_csr(n, edges);
      const Graph g = builder.build();
      const AdjacencyView view = g.view();
      ASSERT_FALSE(view.wide());
      ASSERT_EQ(view.node_count, n);
      EXPECT_EQ(std::vector<std::uint32_t>(view.offsets32, view.offsets32 + n + 1), offsets)
          << "n=" << n << " m=" << m;
      EXPECT_EQ(std::vector<NodeId>(view.adjacency, view.adjacency + view.adjacency_count),
                adjacency)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(7, 0), std::invalid_argument);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(6);
  b.add_edge(3, 5).add_edge(3, 1).add_edge(3, 4).add_edge(3, 0);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, EdgesAreCanonicalAndSorted) {
  GraphBuilder b(4);
  b.add_edge(3, 2).add_edge(1, 0).add_edge(2, 0);
  const auto edges = b.build().edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 3}));
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = GraphBuilder(2).add_edge(0, 1).build();
  EXPECT_FALSE(g.has_edge(0, 5));
  EXPECT_FALSE(g.has_edge(5, 0));
}

TEST(Graph, DegreeStatsHelpers) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(0, 2).add_edge(0, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 6.0 / 4.0);
}

TEST(Graph, DescribeMentionsCounts) {
  const Graph g = GraphBuilder(7).add_edge(0, 1).build();
  const std::string d = g.describe();
  EXPECT_NE(d.find("n=7"), std::string::npos);
  EXPECT_NE(d.find("m=1"), std::string::npos);
}

TEST(Graph, CopiesShareStorageAndOutliveTheOriginal) {
  auto rng = support::Xoshiro256StarStar(11);
  GraphBuilder b(50);
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<NodeId>(rng.below(50));
    const auto v = static_cast<NodeId>(rng.below(50));
    if (u != v) b.add_edge(u, v);
  }
  const Graph reference = b.build();

  Graph copy;
  {
    const Graph original = b.build();
    copy = original;  // shares the builder's vectors, must keep them alive
    EXPECT_EQ(copy.view().adjacency, original.view().adjacency);
    EXPECT_EQ(copy.view().offsets32, original.view().offsets32);
  }
  EXPECT_FALSE(copy.memory_mapped());
  ASSERT_EQ(copy.node_count(), reference.node_count());
  EXPECT_EQ(copy.edges(), reference.edges());
  for (NodeId v = 0; v < copy.node_count(); ++v) {
    const auto got = copy.neighbors(v);
    const auto want = reference.neighbors(v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << "node " << v;
  }
}

TEST(Canonical, OrdersEndpoints) {
  EXPECT_EQ(canonical({5, 2}), (Edge{2, 5}));
  EXPECT_EQ(canonical({2, 5}), (Edge{2, 5}));
}

TEST(DisjointUnion, RelabelsSecondGraph) {
  const Graph a = GraphBuilder(2).add_edge(0, 1).build();
  const Graph b = GraphBuilder(3).add_edge(0, 2).build();
  const Graph u = disjoint_union(a, b);
  EXPECT_EQ(u.node_count(), 5u);
  EXPECT_EQ(u.edge_count(), 2u);
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(2, 4));
  EXPECT_FALSE(u.has_edge(1, 2));
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  GraphBuilder b(5);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).add_edge(3, 4);
  const Graph g = b.build();
  const std::vector<NodeId> keep{1, 2, 4};
  const InducedSubgraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.node_count(), 3u);
  EXPECT_EQ(sub.graph.edge_count(), 1u);  // only 1-2 survives
  EXPECT_EQ(sub.original_ids, (std::vector<NodeId>{1, 2, 4}));
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
}

TEST(InducedSubgraph, DeduplicatesAndValidates) {
  const Graph g = GraphBuilder(3).add_edge(0, 1).build();
  const std::vector<NodeId> keep{1, 1, 0};
  const InducedSubgraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.node_count(), 2u);
  const std::vector<NodeId> bad{9};
  EXPECT_THROW(induced_subgraph(g, bad), std::invalid_argument);
}

TEST(Complement, TriangleBecomesEmpty) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
  const Graph c = complement(b.build());
  EXPECT_EQ(c.edge_count(), 0u);
}

TEST(Complement, EmptyBecomesComplete) {
  const Graph c = complement(GraphBuilder(4).build());
  EXPECT_EQ(c.edge_count(), 6u);
}

}  // namespace
}  // namespace beepmis::graph
