// Sharded single-run simulator: K contiguous node-range shards execute one
// beeping-model run in parallel, bit-identically to BeepSimulator.
//
// The scalar frontier core (beep.hpp) makes a run cheap per exchange but
// strictly serial: one huge graph cannot use more than one core, because
// the library's parallelism is across trials and batch lanes only.  This
// simulator partitions the CSR by node range (graph/partition.hpp) and
// runs every exchange as K parallel per-shard passes plus a boundary-beep
// merge:
//
//   emit     each shard runs the protocol's emit over its own slice of the
//            active frontier, drawing from its own rng stream (see the
//            draw-order contract below);
//   deliver  listener-partitioned: a shard sets heard flags only for its
//            own node range, pulling first from its local beepers and then
//            from the other shards' boundary beepers through the
//            partition's per-shard adjacency slices — race-free without
//            atomics, because no two shards write the same range;
//   react    each shard runs the protocol's react over its own actives;
//   merge    at round boundaries the coordinator merges per-shard MIS
//            joins (ascending, matching the scalar join order), applies
//            fault outcomes and decides termination.
//
// ## Draw-order contract (see also src/sim/README.md)
//
// The run consumes the rng stream in *exactly* the scalar order, so the
// result is bit-identical to BeepSimulator for every shard count.  This is
// possible because shard-supported protocols declare a fixed number of
// single-output draws per active-list entry per exchange
// (BeepProtocol::shard_support): before each drawing exchange the
// coordinator carves the stream into per-shard windows by advancing a
// cursor by (draws * active count) per shard — shard s's window is exactly
// the subsequence the scalar run would hand shard s's nodes.  Lossy
// delivery draws are inherently cross-shard (one Bernoulli per potential
// delivery, in global beeper order with a global already-heard
// short-circuit), so in lossy mode delivery runs serially on the
// coordinator, preserving the contract at reduced parallelism.  Sharded
// runs that trade bit-identity for a different sample of the same
// distribution are ShardedBatchSimulator's job (sim/sharded_batch.hpp).
//
// Event traces and round observers are scalar-only by design (they would
// serialize the shards); construction with record_trace throws.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <optional>
#include <vector>

#include "graph/partition.hpp"
#include "sim/beep.hpp"

namespace beepmis::sim {

class ShardedSimulator {
 public:
  /// Upper bound on the shard count (construction throws above it).  A
  /// shard is a worker thread plus n·(K+1)·4 bytes of partition slice
  /// index, so values beyond any plausible core count are a configuration
  /// error (a negative CLI value wrapped through unsigned, say), not a
  /// scaling request.
  static constexpr unsigned kMaxShards = 256;

  /// Binds `g` and partitions it into (at most) `shards` ranges; `shards`
  /// is clamped to [1, n].  Worker threads are spawned per run, one per
  /// shard, through support::run_workers.
  ShardedSimulator(const graph::Graph& g, unsigned shards, SimConfig config = {});
  /// The simulator stores a reference; a temporary graph would dangle.
  ShardedSimulator(graph::Graph&&, unsigned, SimConfig = {}) = delete;
  /// Unbound simulator: only usable through the graph-taking run overload.
  explicit ShardedSimulator(unsigned shards, SimConfig config = {});

  /// Executes `protocol` to termination (or the round cap) on the bound
  /// graph.  Throws std::invalid_argument unless
  /// protocol.shard_support().supported.
  [[nodiscard]] RunResult run(BeepProtocol& protocol, support::Xoshiro256StarStar rng);
  /// Rebinds to `g` (rebuilding the partition and fault schedules — unlike
  /// the scalar core there is no same-size fast path, because the
  /// partition depends on edge data) and runs.  The caller must keep `g`
  /// alive for the duration of the call.
  [[nodiscard]] RunResult run(const graph::Graph& g, BeepProtocol& protocol,
                              support::Xoshiro256StarStar rng);
  RunResult run(graph::Graph&&, BeepProtocol&, support::Xoshiro256StarStar) = delete;

  /// The active partition (valid once a graph is bound).
  [[nodiscard]] const graph::Partition& partition() const;
  /// Actual shard count after clamping (valid once a graph is bound).
  [[nodiscard]] unsigned shard_count() const noexcept {
    return partition_.shard_count();
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  /// Per-shard execution lane: the shard's slice of the frontier state
  /// plus its mutation sink and rng window.  Cache-line aligned so lanes
  /// hammering their own counters do not false-share.
  struct alignas(64) Lane {
    graph::NodeId lo = 0, hi = 0;
    detail::FaultSchedule faults;
    detail::FaultCursor cursor;
    detail::FaultOutcome fault_outcome;
    std::vector<graph::NodeId> active;
    std::vector<graph::NodeId> beepers;
    /// beepers filtered to boundary nodes, rebuilt each reliable exchange
    /// so the cross-shard merge scans only beeps that can cross a shard
    /// line instead of every remote frontier entry.
    std::vector<graph::NodeId> boundary_beepers;
    std::vector<graph::NodeId> prev_beepers;
    std::vector<graph::NodeId> heard_dirty;
    std::vector<graph::NodeId> joined;       ///< new MIS joins this round
    std::vector<graph::NodeId> reactivated;  ///< unused by supported protocols
    /// Reliable-channel keep-alive cache: this shard's slice of N(MIS),
    /// lazily synced against the coordinator's global MIS list.
    std::vector<graph::NodeId> mis_hear;
    std::uint64_t mis_generation = 0;  ///< global generation incorporated
    std::size_t mis_cache_count = 0;   ///< global MIS prefix incorporated
    std::uint64_t total_beeps = 0;
    bool mis_flag_scratch = false;  ///< sink target; lanes sync lazily instead
    support::Xoshiro256StarStar rng{0};
    detail::MutationSink sink;
    /// First exception this lane's protocol calls raised; the lane keeps
    /// arriving at every barrier (so no other lane can deadlock) and the
    /// coordinator aborts the run at the next round boundary, after which
    /// the exception is rethrown at the common exit point for
    /// run_workers' capture.
    std::exception_ptr error;
  };

  void bind_graph(const graph::Graph& g);
  void shard_worker(unsigned s);
  void coordinate_round_boundary();
  void sync_master();
  void carve_streams(unsigned exchange);
  void deliver_reliable(Lane& lane, unsigned s);
  void deliver_lossy_serial();

  const graph::Graph* graph_ = nullptr;
  unsigned requested_shards_ = 1;
  SimConfig config_;
  graph::Partition partition_;
  std::vector<Lane> lanes_;

  // Global per-node state; each lane touches only its own range during
  // parallel phases.
  std::vector<NodeStatus> status_;
  std::vector<std::uint8_t> in_active_;
  std::vector<std::uint8_t> beeped_;
  std::vector<std::uint8_t> prev_beeped_;
  std::vector<std::uint8_t> heard_;
  std::vector<std::uint8_t> in_mis_hear_;
  std::vector<std::uint32_t> beep_counts_;
  /// Live MIS members in global join order; mutated only by the
  /// coordinator between parallel phases.
  std::vector<graph::NodeId> mis_nodes_;
  std::uint64_t mis_generation_ = 1;  ///< bumped on MIS crash (full rebuilds)

  // Run-scoped coordination state.
  BeepProtocol* protocol_ = nullptr;
  ShardSupport support_;
  support::Xoshiro256StarStar master_{0};
  int pending_sync_lane_ = -1;  ///< lane whose post-emit rng is the master cursor
  std::optional<std::barrier<>> sync_;
  std::atomic<bool> failed_{false};
  bool running_ = true;
  bool first_pass_ = true;
  bool lossy_ = false;
  double keep_ = 1.0;
  unsigned exchanges_ = 2;
  std::size_t round_ = 0;
  std::size_t active_total_ = 0;
  bool wakeups_pending_ = false;
};

}  // namespace beepmis::sim
