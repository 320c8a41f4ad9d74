// On-disk CSR graph container ("BMCSR") — the disk tier of the
// memory-tiered graph storage layer (see src/graph/README.md).
//
// File layout (fixed 64-byte little-endian header, then two arrays):
//
//   offset  size  field
//        0     8  magic "BMCSRGR\0"
//        8     4  u32 version (currently 1)
//       12     4  u32 flags (bit 0: wide 64-bit offsets; others reserved 0)
//       16     8  u64 node_count
//       24     8  u64 adjacency_count (== offsets[node_count] == 2m)
//       32     8  u64 payload_checksum (FNV-1a over offsets then adjacency bytes)
//       40     8  u64 header_checksum (FNV-1a over bytes [0, 40))
//       48    16  reserved, must be zero
//       64     —  offsets: (node_count+1) × u32, or × u64 when flag bit 0
//        …     —  adjacency: adjacency_count × u32, concatenated sorted
//                 neighbour lists
//
// The wide-offsets flag is the on-disk face of Graph's uint32→64-bit
// offset fallback: files below ~2.1 billion directed edges use the narrow
// layout, larger ones the wide layout, mirroring the in-RAM decision so a
// round trip never changes representation.  Writers produce the file
// atomically (temp file in the same directory + fsync + rename) so a crash
// mid-write can never leave a half-written file under the target name.
// Readers validate magic/version/flags/exact size/header checksum and
// offset monotonicity unconditionally, and (by default) the full payload
// checksum plus neighbour-range/sortedness — reject-whole, like the sweep
// journal: a file is either understood exactly or refused loudly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "graph/graph.hpp"

namespace beepmis::graph {

/// First 8 bytes of every BMCSR file.
inline constexpr unsigned char kCsrFileMagic[8] = {'B', 'M', 'C', 'S', 'R', 'G', 'R', 0};
inline constexpr std::uint32_t kCsrFileVersion = 1;

/// Serialises `g` (either tier, via Graph::view()) to `path` atomically.
/// Throws std::runtime_error naming the path on any I/O failure.
void write_csr_file(const Graph& g, const std::string& path);

/// Memory-maps `path` as a read-only Graph (the disk tier).  The returned
/// Graph — and every copy of it — shares the mapping and keeps it alive.
/// Every load verifies the file whole before returning: the structural
/// checks (header checksum, exact file size, offset monotonicity), then one
/// sequential O(n + m) pass that checks the payload checksum and scans the
/// adjacency for out-of-range ids, self-loops and unsorted or duplicate
/// neighbour lists.  Throws std::runtime_error naming the path on I/O
/// failure or any validation failure.
[[nodiscard]] Graph load_csr_file(const std::string& path);

/// Whether `path` starts with the BMCSR magic (content sniff used by the
/// family="file" loader to pick mmap vs edge-list-text ingest).  False for
/// unreadable or short files.
[[nodiscard]] bool is_csr_file(const std::string& path);

// --- streaming builds -----------------------------------------------------

/// Receives one undirected edge; endpoints may come in either orientation.
using EdgeEmitter = std::function<void(NodeId u, NodeId v)>;

/// A *replayable* edge enumeration: invoking the stream emits every edge of
/// the graph exactly once (no duplicates in either orientation, no
/// self-loops), and every invocation replays the identical sequence.
/// Generators re-seed a fresh rng per replay (graph/generators.hpp edge
/// streams); file ingest re-reads the file (graph/io.hpp).
using EdgeStream = std::function<void(const EdgeEmitter&)>;

struct StreamCsrOptions {
  /// Bound on the chunk fill buffer.  The builder keeps O(node_count)
  /// index arrays plus one adjacency chunk of at most this many bytes
  /// (a single node whose list alone exceeds the budget still gets one
  /// over-budget chunk); smaller budgets trade more stream replays for a
  /// lower peak RSS.
  std::size_t memory_budget_bytes = 64ull << 20;
  /// Test seam: write the wide (64-bit offset) layout regardless of size,
  /// so the fallback boundary is coverable without 2^31 edges.
  bool force_wide_offsets = false;
};

struct StreamCsrStats {
  std::uint64_t adjacency_count = 0;  ///< directed slots written (2m)
  unsigned stream_passes = 0;         ///< replays: 1 degree pass + fill chunks
};

/// Builds the BMCSR file for the graph described by `stream` without ever
/// materialising the full edge list or adjacency in memory: one counting
/// replay fixes the degrees/offsets, then node-range chunks sized by the
/// memory budget are filled (scatter + per-node sort) by further replays
/// and appended sequentially.  Bit-identical to GraphBuilder + write_csr_file
/// for the same edge set.  Throws std::invalid_argument on a self-loop,
/// out-of-range endpoint, duplicate edge, or a stream that does not replay
/// identically; std::runtime_error on I/O failure.  Atomic like
/// write_csr_file.
StreamCsrStats write_csr_file_streaming(NodeId node_count, const EdgeStream& stream,
                                        const std::string& path,
                                        const StreamCsrOptions& options = {});

}  // namespace beepmis::graph
