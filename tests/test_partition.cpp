// graph::Partition: contiguous ranges, per-shard adjacency slices and
// boundary bookkeeping — the graph-layer contract the sharded simulator's
// listener-partitioned delivery is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "support/rng.hpp"

namespace beepmis {
namespace {

graph::Graph test_graph(graph::NodeId n, double avg_degree, std::uint64_t seed) {
  auto rng = support::Xoshiro256StarStar(seed);
  return graph::gnp(n, avg_degree / static_cast<double>(n), rng);
}

TEST(Partition, RangesCoverAllNodesContiguously) {
  const graph::Graph g = test_graph(101, 6.0, 1);
  for (const std::uint32_t k : {1u, 2u, 3u, 7u, 16u}) {
    const graph::Partition p = graph::Partition::build(g, k);
    ASSERT_EQ(p.shard_count(), k);
    EXPECT_EQ(p.begin(0), 0u);
    EXPECT_EQ(p.end(k - 1), g.node_count());
    for (std::uint32_t s = 0; s + 1 < k; ++s) {
      EXPECT_EQ(p.end(s), p.begin(s + 1));
      EXPECT_LE(p.begin(s), p.end(s));
    }
  }
}

TEST(Partition, ShardCountClampedToNodes) {
  const graph::Graph g = graph::path(5);
  const graph::Partition p = graph::Partition::build(g, 64);
  EXPECT_EQ(p.shard_count(), 5u);
  const graph::Partition p1 = graph::Partition::build(g, 0);
  EXPECT_EQ(p1.shard_count(), 1u);
}

TEST(Partition, SlicesPartitionEveryAdjacencyList) {
  const graph::Graph g = test_graph(80, 8.0, 2);
  for (const std::uint32_t k : {1u, 2u, 5u, 13u}) {
    const graph::Partition p = graph::Partition::build(g, k);
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      std::vector<graph::NodeId> rebuilt;
      for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
        const auto slice = p.neighbors_in(u, s);
        for (const graph::NodeId w : slice) {
          // Every slice member lies in the shard's range.
          EXPECT_GE(w, p.begin(s));
          EXPECT_LT(w, p.end(s));
          rebuilt.push_back(w);
        }
      }
      // Concatenating the slices in shard order rebuilds the sorted list.
      const auto nbrs = g.neighbors(u);
      ASSERT_EQ(rebuilt.size(), nbrs.size()) << "node " << u << " k " << k;
      EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), nbrs.begin()));
    }
  }
}

TEST(Partition, OutlivesTheGraphItWasBuiltFrom) {
  const graph::Graph reference = test_graph(90, 6.0, 9);
  graph::Partition p;
  {
    const graph::Graph g = test_graph(90, 6.0, 9);
    p = graph::Partition::build(g, 4);
  }
  ASSERT_EQ(p.graph().node_count(), reference.node_count());
  for (graph::NodeId u = 0; u < reference.node_count(); ++u) {
    std::vector<graph::NodeId> rebuilt;
    for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
      for (const graph::NodeId w : p.neighbors_in(u, s)) rebuilt.push_back(w);
    }
    const auto nbrs = reference.neighbors(u);
    ASSERT_EQ(rebuilt.size(), nbrs.size()) << "node " << u;
    EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), nbrs.begin())) << "node " << u;
  }
}

TEST(Partition, ShardOfMatchesRanges) {
  const graph::Graph g = test_graph(60, 4.0, 3);
  const graph::Partition p = graph::Partition::build(g, 7);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const std::uint32_t s = p.shard_of(v);
    EXPECT_GE(v, p.begin(s));
    EXPECT_LT(v, p.end(s));
  }
}

TEST(Partition, BoundaryFlagsMatchBruteForce) {
  const graph::Graph g = test_graph(70, 5.0, 4);
  const graph::Partition p = graph::Partition::build(g, 4);
  std::size_t boundary_listed = 0;
  for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
    for (const graph::NodeId v : p.boundary_nodes(s)) {
      EXPECT_EQ(p.shard_of(v), s);
      EXPECT_TRUE(p.is_boundary(v));
    }
    boundary_listed += p.boundary_nodes(s).size();
  }
  std::size_t boundary_brute = 0;
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    bool boundary = false;
    for (const graph::NodeId w : g.neighbors(u)) {
      boundary = boundary || p.shard_of(w) != p.shard_of(u);
    }
    EXPECT_EQ(p.is_boundary(u), boundary) << "node " << u;
    if (boundary) ++boundary_brute;
  }
  EXPECT_EQ(boundary_listed, boundary_brute);
}

TEST(Partition, EdgeAccountingSumsToEdgeCount) {
  const graph::Graph g = test_graph(90, 7.0, 5);
  for (const std::uint32_t k : {1u, 2u, 6u}) {
    const graph::Partition p = graph::Partition::build(g, k);
    std::size_t internal = 0;
    for (std::uint32_t s = 0; s < p.shard_count(); ++s) internal += p.internal_edges(s);
    EXPECT_EQ(internal + p.cut_edges(), g.edge_count()) << "k " << k;
    if (k == 1) {
      EXPECT_EQ(p.cut_edges(), 0u);
      EXPECT_EQ(p.internal_edges(0), g.edge_count());
    }
  }
}

TEST(Partition, DegreeWeightBalance) {
  // Balanced prefix splitting: no shard should carry more than ~2x the
  // ideal degree+1 weight on a homogeneous random graph.
  const graph::Graph g = test_graph(400, 8.0, 6);
  const graph::Partition p = graph::Partition::build(g, 8);
  const double total = static_cast<double>(2 * g.edge_count() + g.node_count());
  const double ideal = total / 8.0;
  for (std::uint32_t s = 0; s < 8; ++s) {
    double w = 0;
    for (graph::NodeId v = p.begin(s); v < p.end(s); ++v) {
      w += static_cast<double>(g.degree(v) + 1);
    }
    EXPECT_LT(w, 2.0 * ideal) << "shard " << s;
  }
}

TEST(Partition, EmptyGraph) {
  const graph::Graph g;
  const graph::Partition p = graph::Partition::build(g, 4);
  EXPECT_EQ(p.shard_count(), 1u);
  EXPECT_EQ(p.begin(0), 0u);
  EXPECT_EQ(p.end(0), 0u);
  EXPECT_EQ(p.cut_edges(), 0u);
}

TEST(Partition, LocalAdjacencyCopiesAreElementIdentical) {
  // materialize_local_adjacency is a pure layout change: every slice must
  // return the same elements in the same order as the shared-subspan path.
  const graph::Graph g = test_graph(150, 7.0, 9);
  for (const std::uint32_t k : {1u, 2u, 4u, 9u}) {
    const graph::Partition shared = graph::Partition::build(g, k);
    graph::Partition local = graph::Partition::build(g, k);
    local.materialize_local_adjacency();
    for (std::uint32_t s = 0; s < shared.shard_count(); ++s) {
      EXPECT_TRUE(local.local_adjacency_materialized(s)) << "shard " << s;
      EXPECT_FALSE(shared.local_adjacency_materialized(s)) << "shard " << s;
      for (graph::NodeId u = 0; u < g.node_count(); ++u) {
        const auto a = shared.neighbors_in(u, s);
        const auto b = local.neighbors_in(u, s);
        ASSERT_EQ(a.size(), b.size()) << "node " << u << " shard " << s;
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i], b[i]) << "node " << u << " shard " << s << " slot " << i;
        }
      }
    }
  }
}

TEST(Partition, LocalAdjacencyIsContiguousPerShard) {
  // The locality contract: within a shard, walking nodes in order reads
  // its local array sequentially with no gaps or overlaps.
  const graph::Graph g = test_graph(90, 6.0, 12);
  graph::Partition p = graph::Partition::build(g, 3);
  p.materialize_local_adjacency();
  for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
    ASSERT_TRUE(p.local_adjacency_materialized(s));
    std::size_t cursor = 0;
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      const auto slice = p.neighbors_in(u, s);
      if (slice.empty()) continue;
      // Each non-empty slice starts exactly where the previous one ended.
      std::size_t total = 0;
      for (graph::NodeId w = 0; w < u; ++w) total += p.neighbors_in(w, s).size();
      EXPECT_EQ(total, cursor) << "node " << u << " shard " << s;
      cursor += slice.size();
    }
  }
}

TEST(Partition, LocalAdjacencyOnEdgelessAndEmptyGraphs) {
  const graph::Graph edgeless = graph::empty_graph(10);
  graph::Partition p = graph::Partition::build(edgeless, 3);
  p.materialize_local_adjacency();
  for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
    for (graph::NodeId u = 0; u < edgeless.node_count(); ++u) {
      EXPECT_TRUE(p.neighbors_in(u, s).empty());
    }
  }

  const graph::Graph none;
  graph::Partition q = graph::Partition::build(none, 2);
  q.materialize_local_adjacency();  // must not crash on n = 0
  EXPECT_EQ(q.shard_count(), 1u);
}

}  // namespace
}  // namespace beepmis
