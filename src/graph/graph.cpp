#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace beepmis::graph {

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::mean_degree() const noexcept {
  if (node_count() == 0) return 0.0;
  return static_cast<double>(adjacency_size()) / static_cast<double>(node_count());
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= node_count() || v >= node_count()) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

std::string Graph::describe() const {
  std::ostringstream ss;
  ss << "Graph(n=" << node_count() << ", m=" << edge_count() << ")";
  return ss.str();
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u == v) throw std::invalid_argument("GraphBuilder: self-loops are not allowed");
  if (u >= node_count_ || v >= node_count_) {
    throw std::invalid_argument("GraphBuilder: endpoint out of range");
  }
  edges_.push_back(canonical({u, v}));
  return *this;
}

namespace {

/// The bytes behind a built Graph: exactly one offset vector is filled.
struct CsrVectors {
  std::vector<std::uint32_t> offsets32;
  std::vector<std::uint64_t> offsets64;
  std::vector<NodeId> adjacency;
};

}  // namespace

Graph GraphBuilder::build() const {
  // Two stable counting-sort passes over the directed entries (each edge in
  // both orientations), O(n + m) in all: the first groups the near
  // endpoints by far endpoint, the second walks the far endpoints in
  // ascending order and appends each to its near endpoint's list, so every
  // list comes out sorted and any duplicate entries are adjacent.  The
  // entries are symmetric, so one degree count sizes both passes.  Offsets
  // are computed in 64 bits and narrowed below unless the adjacency array
  // is too large for 32.
  const std::size_t n = node_count_;
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> by_far(offsets[n]);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges_) {
    by_far[cursor[e.v]++] = e.u;
    by_far[cursor[e.u]++] = e.v;
  }
  auto csr = std::make_shared<CsrVectors>();
  std::vector<NodeId>& adjacency = csr->adjacency;
  adjacency.resize(offsets[n]);
  cursor.assign(offsets.begin(), offsets.end() - 1);
  for (NodeId w = 0; w < node_count_; ++w) {
    for (std::uint64_t i = offsets[w]; i < offsets[w + 1]; ++i) {
      adjacency[cursor[by_far[i]]++] = w;
    }
  }
  by_far = {};

  // Drop repeated entries in place, rewriting the offsets as we go.
  std::uint64_t kept = 0;
  for (std::size_t v = 0, read = 0; v < n; ++v) {
    const std::uint64_t end = offsets[v + 1];
    offsets[v] = kept;
    for (; read < end; ++read) {
      if (kept == offsets[v] || adjacency[kept - 1] != adjacency[read]) {
        adjacency[kept++] = adjacency[read];
      }
    }
  }
  offsets[n] = kept;
  if (kept != adjacency.size()) {
    adjacency.resize(kept);
    adjacency.shrink_to_fit();
  }

  AdjacencyView view;
  view.node_count = node_count_;
  if (kept <= std::numeric_limits<std::uint32_t>::max()) {
    csr->offsets32.assign(offsets.begin(), offsets.end());
    view.offsets32 = csr->offsets32.data();
  } else {
    csr->offsets64 = std::move(offsets);
    view.offsets64 = csr->offsets64.data();
  }
  view.adjacency = adjacency.data();
  view.adjacency_count = kept;
  return Graph(view, std::move(csr), /*memory_mapped=*/false);
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  const NodeId na = a.node_count();
  GraphBuilder builder(na + b.node_count());
  for (const Edge& e : a.edges()) builder.add_edge(e.u, e.v);
  for (const Edge& e : b.edges()) builder.add_edge(e.u + na, e.v + na);
  return builder.build();
}

InducedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> keep) {
  std::vector<NodeId> ids(keep.begin(), keep.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (NodeId v : ids) {
    if (v >= g.node_count()) {
      throw std::invalid_argument("induced_subgraph: node id out of range");
    }
  }

  std::vector<NodeId> remap(g.node_count(), static_cast<NodeId>(-1));
  for (std::size_t i = 0; i < ids.size(); ++i) remap[ids[i]] = static_cast<NodeId>(i);

  GraphBuilder builder(static_cast<NodeId>(ids.size()));
  for (NodeId v : ids) {
    for (NodeId w : g.neighbors(v)) {
      if (v < w && remap[w] != static_cast<NodeId>(-1)) {
        builder.add_edge(remap[v], remap[w]);
      }
    }
  }
  return {builder.build(), std::move(ids)};
}

Graph complement(const Graph& g) {
  const NodeId n = g.node_count();
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v)) builder.add_edge(u, v);
    }
  }
  return builder.build();
}

}  // namespace beepmis::graph
