// Node-range partition of a CSR graph for sharded simulation.
//
// A Partition splits the node id space [0, n) into K *contiguous* ranges
// ("shards") balanced by degree-weighted size, and precomputes, for every
// node, the slice of its (sorted) adjacency list that falls inside each
// shard.  That turns the graph into K per-shard CSR views without copying
// any edge data: shard s's view of the graph is "neighbors_in(u, s) for
// any u" — the edges whose *listener* endpoint shard s owns — so a
// push-style beep delivery can be partitioned by listener (each shard
// writes only its own heard flags, race-free) while every shard still
// reads the one shared CSR.
//
// Boundary bookkeeping: a node with at least one neighbour outside its own
// shard is a *boundary* node; its beeps must be exported to the shards
// owning those neighbours (the sharded simulator pre-filters each shard's
// frontier through is_boundary before the cross-shard merge).
// `boundary_nodes(s)` lists shard s's boundary nodes and `cut_edges()` /
// `internal_edges(s)` count edges against shard lines — the
// balance/locality trade-off bench_shard records per sharded row
// (cut_edges / boundary_nodes fields in BENCH_core.json's shard section).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace beepmis::graph {

class Partition {
 public:
  Partition() = default;

  /// Partitions `g` into (at most) `shards` contiguous node ranges whose
  /// degree+1 weights are balanced by prefix splitting.  `shards` is
  /// clamped to [1, max(n, 1)]; trailing shards may be empty on tiny or
  /// degree-skewed graphs.  O(m + n·K) time, n·(K+1) uint32 of index
  /// memory.  The partition holds a copy of `g`, which shares its storage
  /// (O(1)), so it stays valid after the caller's graph is gone.
  static Partition build(const Graph& g, std::uint32_t shards);

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(bounds_.size() - 1);
  }
  /// Shard s owns node ids [begin(s), end(s)).
  [[nodiscard]] NodeId begin(std::uint32_t s) const { return bounds_[s]; }
  [[nodiscard]] NodeId end(std::uint32_t s) const { return bounds_[s + 1]; }
  [[nodiscard]] NodeId size(std::uint32_t s) const { return end(s) - begin(s); }

  /// The shard owning node v (binary search over the K+1 bounds).
  [[nodiscard]] std::uint32_t shard_of(NodeId v) const;

  /// The neighbours of `u` that live in shard `s` — a subspan of the
  /// graph's sorted adjacency list (or of shard s's reordered local copy
  /// after materialize_local_adjacency()), so iteration order always
  /// matches a full neighbour walk filtered to [begin(s), end(s)).
  [[nodiscard]] std::span<const NodeId> neighbors_in(NodeId u, std::uint32_t s) const {
    const std::uint32_t k = shard_count();
    const std::uint32_t lo = slice_rel_[static_cast<std::size_t>(u) * (k + 1) + s];
    const std::uint32_t hi = slice_rel_[static_cast<std::size_t>(u) * (k + 1) + s + 1];
    if (local_off_.empty() || local_off_[s].empty()) {
      return graph_.neighbors(u).subspan(lo, hi - lo);
    }
    return {local_adj_[s].data() + local_off_[s][u], hi - lo};
  }

  /// Builds per-shard *reordered* CSR copies: for each shard s, the slices
  /// neighbors_in(u, s) for u = 0..n-1 concatenated contiguously, so a
  /// shard's delivery sweep reads one sequential array instead of strided
  /// subspans of the shared adjacency — the locality rationale for running
  /// sharded lanes against a memory-mapped shared CSR.  Identical elements
  /// in identical order, so simulation results are bit-identical either
  /// way.  Costs one extra copy of the adjacency (split across shards)
  /// plus n uint32 per shard; a shard whose local copy would exceed the
  /// 32-bit index range silently keeps the shared-subspan path.
  void materialize_local_adjacency();

  /// Whether shard s reads its reordered local copy (false before
  /// materialize_local_adjacency(), or for an over-large shard).
  [[nodiscard]] bool local_adjacency_materialized(std::uint32_t s) const {
    return !local_off_.empty() && !local_off_[s].empty();
  }

  /// Whether `u` has at least one neighbour outside its own shard.
  [[nodiscard]] bool is_boundary(NodeId u) const { return boundary_[u] != 0; }
  /// Boundary nodes of shard s, ascending.
  [[nodiscard]] const std::vector<NodeId>& boundary_nodes(std::uint32_t s) const {
    return boundary_nodes_[s];
  }

  /// Edges with both endpoints in shard s.
  [[nodiscard]] std::size_t internal_edges(std::uint32_t s) const {
    return internal_edges_[s];
  }
  /// Edges crossing a shard line (each counted once).
  [[nodiscard]] std::size_t cut_edges() const noexcept { return cut_edges_; }

  [[nodiscard]] const Graph& graph() const noexcept { return graph_; }

 private:
  Graph graph_;
  /// K+1 range bounds: shard s owns [bounds_[s], bounds_[s+1]).
  std::vector<NodeId> bounds_ = {0, 0};
  /// Per-node relative slice offsets into the node's adjacency list:
  /// slice_rel_[u*(K+1) + s] .. [.. + s + 1] delimit the neighbours of u
  /// inside shard s.  Relative (not absolute CSR) offsets fit uint32 for
  /// any graph, since a single degree cannot exceed n.
  std::vector<std::uint32_t> slice_rel_;
  std::vector<std::uint8_t> boundary_;
  std::vector<std::vector<NodeId>> boundary_nodes_;
  std::vector<std::size_t> internal_edges_;
  std::size_t cut_edges_ = 0;
  /// Reordered per-shard CSR copies (materialize_local_adjacency):
  /// local_off_[s][u] is the start of u's shard-s slice in local_adj_[s];
  /// the slice length still comes from slice_rel_.  Empty per shard until
  /// materialized (or when the copy would overflow 32-bit indexing).
  std::vector<std::vector<std::uint32_t>> local_off_;
  std::vector<std::vector<NodeId>> local_adj_;
};

}  // namespace beepmis::graph
