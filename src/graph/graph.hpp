// Immutable simple undirected graph in compressed sparse row (CSR) form.
//
// All simulators and algorithms in this library operate on this one graph
// type.  Construction goes through GraphBuilder, which deduplicates edges,
// rejects self-loops and sorts adjacency lists, so a constructed Graph
// always satisfies the simple-graph invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace beepmis::graph {

using NodeId = std::uint32_t;

/// Undirected edge; canonical form has u < v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;
};

/// Returns the canonical (min, max) orientation of an edge.
[[nodiscard]] constexpr Edge canonical(Edge e) noexcept {
  return e.u <= e.v ? e : Edge{e.v, e.u};
}

class GraphBuilder;

/// Backend-independent read view of a CSR adjacency structure: (n+1)
/// offsets (narrow 32-bit or wide 64-bit — exactly one pointer set)
/// delimiting slices of one concatenated sorted-neighbour array.  This is
/// the tier interface of the memory-tiered storage layer
/// (src/graph/README.md): every Graph reads through one, whichever tier
/// owns the bytes, so the on-disk CSR writer (csr_file.hpp) serialises an
/// in-RAM and a memory-mapped graph identically, and differential tests
/// compare tiers element-by-element through it.  Non-owning — valid only
/// while a Graph sharing its storage lives.
struct AdjacencyView {
  NodeId node_count = 0;
  const std::uint32_t* offsets32 = nullptr;  ///< (n+1) narrow offsets, or
  const std::uint64_t* offsets64 = nullptr;  ///< (n+1) wide-fallback offsets
  const NodeId* adjacency = nullptr;
  std::uint64_t adjacency_count = 0;  ///< == offsets[node_count] == 2m

  [[nodiscard]] bool wide() const noexcept { return offsets64 != nullptr; }
  [[nodiscard]] std::uint64_t offset(NodeId i) const noexcept {
    return offsets32 != nullptr ? offsets32[i] : offsets64[i];
  }
  /// Sorted neighbours of `v`.  Precondition: v < node_count.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    if (offsets32 != nullptr) [[likely]] {
      return {adjacency + offsets32[v], adjacency + offsets32[v + 1]};
    }
    return {adjacency + offsets64[v], adjacency + offsets64[v + 1]};
  }
};

/// Immutable simple undirected graph.  Neighbour lists are sorted, so
/// adjacency tests are O(log deg) and neighbour iteration is cache-friendly.
///
/// A Graph is an AdjacencyView plus a shared handle that owns the bytes it
/// points at.  CSR offsets are 32-bit (halving offset-array memory traffic
/// on large graphs); a graph whose adjacency array exceeds the 32-bit
/// range — more than ~2.1 billion undirected edges — uses 64-bit offsets
/// instead.  The width branch is perfectly predicted (one representation
/// per graph), so the common case pays only the smaller cache footprint.
///
/// Storage tiers differ only in the owner: GraphBuilder's vectors, or a
/// read-only memory-mapped on-disk CSR file (graph/csr_file.hpp's
/// load_csr_file).  Every accessor reads the view, so every simulator runs
/// unmodified against either tier.  Copies share the owner and cost O(1);
/// the bytes are released when the last copy goes away.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] NodeId node_count() const noexcept { return view_.node_count; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return adjacency_size() / 2; }

  /// Length of the concatenated adjacency array (== 2m).
  [[nodiscard]] std::size_t adjacency_size() const noexcept {
    return static_cast<std::size_t>(view_.adjacency_count);
  }

  /// Whether this graph reads from a memory-mapped on-disk CSR file.
  [[nodiscard]] bool memory_mapped() const noexcept { return memory_mapped_; }

  /// Sorted neighbours of `v`.  Precondition: v < node_count().
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return view_.neighbors(v);
  }

  [[nodiscard]] std::size_t degree(NodeId v) const noexcept { return neighbors(v).size(); }

  /// The raw CSR arrays (see AdjacencyView).
  [[nodiscard]] AdjacencyView view() const noexcept { return view_; }

  [[nodiscard]] std::size_t max_degree() const noexcept;
  [[nodiscard]] double mean_degree() const noexcept;

  /// O(log deg) adjacency test.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// All edges in canonical (u < v) order, sorted.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Human-readable one-line description ("Graph(n=20, m=95)").
  [[nodiscard]] std::string describe() const;

 private:
  friend class GraphBuilder;
  friend Graph load_csr_file(const std::string& path);

  /// `view` points into `storage`, which keeps the bytes alive.
  Graph(AdjacencyView view, std::shared_ptr<const void> storage, bool memory_mapped)
      : view_(view), storage_(std::move(storage)), memory_mapped_(memory_mapped) {}

  /// The one offset of a default (node-less) Graph.
  static constexpr std::uint32_t kNoNodeOffsets[1] = {0};

  AdjacencyView view_{.offsets32 = kNoNodeOffsets};
  std::shared_ptr<const void> storage_;
  bool memory_mapped_ = false;
};

/// Mutable edge accumulator that produces an immutable Graph.
///
/// Self-loops are rejected (throw); duplicate edges are merged silently so
/// generators can add edges without bookkeeping.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId node_count) : node_count_(node_count) {}

  /// Adds undirected edge {u, v}.  Throws std::invalid_argument on a
  /// self-loop or out-of-range endpoint.
  GraphBuilder& add_edge(NodeId u, NodeId v);

  [[nodiscard]] NodeId node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t pending_edges() const noexcept { return edges_.size(); }

  /// Finalises into a Graph.  The builder may be reused afterwards (its
  /// pending edges are preserved).
  [[nodiscard]] Graph build() const;

 private:
  NodeId node_count_;
  std::vector<Edge> edges_;
};

/// Disjoint union: relabels `b`'s nodes to follow `a`'s.
[[nodiscard]] Graph disjoint_union(const Graph& a, const Graph& b);

/// Induced subgraph on `keep` (ids into `g`); returns the subgraph and the
/// mapping new-id -> old-id.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> original_ids;
};
[[nodiscard]] InducedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> keep);

/// Complement graph (useful for tests: MIS(G) == max clique side-checks on
/// tiny instances).  Quadratic; intended for small graphs only.
[[nodiscard]] Graph complement(const Graph& g);

}  // namespace beepmis::graph
