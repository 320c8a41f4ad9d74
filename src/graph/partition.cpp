#include "graph/partition.hpp"

#include <algorithm>
#include <limits>

namespace beepmis::graph {

Partition Partition::build(const Graph& g, std::uint32_t shards) {
  const NodeId n = g.node_count();
  Partition p;
  p.graph_ = g;
  const std::uint32_t k =
      std::max<std::uint32_t>(1, std::min<std::uint32_t>(shards, std::max<NodeId>(n, 1)));

  // Contiguous ranges balanced by degree+1 weight: prefix splitting against
  // the ideal cumulative weight.  deg+1 (not deg) so isolated nodes still
  // carry weight and an edgeless graph splits evenly.
  p.bounds_.assign(k + 1, n);
  p.bounds_[0] = 0;
  std::size_t total_weight = 2 * g.edge_count() + n;
  std::size_t acc = 0;
  std::uint32_t s = 1;
  for (NodeId v = 0; v < n && s < k; ++v) {
    acc += g.degree(v) + 1;
    // Node v goes to the current shard once acc crosses its quota; the
    // comparison is in integers (acc * k vs total * s) to avoid rounding.
    while (s < k && acc * k >= total_weight * s) {
      p.bounds_[s] = v + 1;
      ++s;
    }
  }

  // Per-node adjacency slices: one pass over each sorted neighbour list,
  // advancing a shard cursor — O(deg + K) per node.
  p.slice_rel_.assign(static_cast<std::size_t>(n) * (k + 1), 0);
  p.boundary_.assign(n, 0);
  p.boundary_nodes_.assign(k, {});
  p.internal_edges_.assign(k, 0);
  p.cut_edges_ = 0;
  std::uint32_t owner = 0;
  for (NodeId u = 0; u < n; ++u) {
    while (u >= p.bounds_[owner + 1]) ++owner;
    const std::span<const NodeId> nbrs = g.neighbors(u);
    std::uint32_t* rel = p.slice_rel_.data() + static_cast<std::size_t>(u) * (k + 1);
    std::uint32_t idx = 0;
    for (std::uint32_t t = 0; t < k; ++t) {
      rel[t] = idx;
      const NodeId hi = p.bounds_[t + 1];
      while (idx < nbrs.size() && nbrs[idx] < hi) ++idx;
      if (t != owner && idx > rel[t]) {
        p.boundary_[u] = 1;
        // Count each cut edge from its lower endpoint only.
        for (std::uint32_t i = rel[t]; i < idx; ++i) {
          if (u < nbrs[i]) ++p.cut_edges_;
        }
      }
    }
    rel[k] = idx;
    const std::uint32_t own_lo = rel[owner];
    const std::uint32_t own_hi = rel[owner + 1];
    for (std::uint32_t i = own_lo; i < own_hi; ++i) {
      if (u < nbrs[i]) ++p.internal_edges_[owner];
    }
    if (p.boundary_[u]) p.boundary_nodes_[owner].push_back(u);
  }
  return p;
}

void Partition::materialize_local_adjacency() {
  const NodeId n = graph_.node_count();
  const std::uint32_t k = shard_count();
  local_off_.assign(k, {});
  local_adj_.assign(k, {});
  for (std::uint32_t s = 0; s < k; ++s) {
    std::uint64_t total = 0;
    for (NodeId u = 0; u < n; ++u) {
      const std::size_t base = static_cast<std::size_t>(u) * (k + 1) + s;
      total += slice_rel_[base + 1] - slice_rel_[base];
    }
    if (total > std::numeric_limits<std::uint32_t>::max()) continue;  // shared fallback
    local_off_[s].resize(n);
    local_adj_[s].resize(static_cast<std::size_t>(total));
    std::uint32_t cursor = 0;
    for (NodeId u = 0; u < n; ++u) {
      const std::size_t base = static_cast<std::size_t>(u) * (k + 1) + s;
      const std::uint32_t lo = slice_rel_[base];
      const std::uint32_t len = slice_rel_[base + 1] - lo;
      local_off_[s][u] = cursor;
      const std::span<const NodeId> nbrs = graph_.neighbors(u);
      std::copy_n(nbrs.data() + lo, len, local_adj_[s].data() + cursor);
      cursor += len;
    }
  }
}

std::uint32_t Partition::shard_of(NodeId v) const {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::uint32_t>(it - bounds_.begin()) - 1;
}

}  // namespace beepmis::graph
