// Sharded × batched simulator: K contiguous node-range shards execute up
// to 64 statistical-lane trials in parallel — every core (sharding) and
// every bit lane (batching) of one exchange engine.
//
// The batched core (batch.hpp) amortises up to 64 trials over one CSR
// pass but is strictly serial; the sharded core (sharded.hpp) uses K
// cores but runs one trial.  This front-end composes the two: the node
// id space is partitioned into K degree-balanced ranges
// (graph/partition.hpp) and each shard sweeps its own slice of all 64
// lane *planes* per exchange, so a large-n many-trial statistical sweep
// is bounded by memory bandwidth across cores instead of one core's.
//
//   emit     each shard runs the batched kernel's emit over its slice of
//            the union active frontier, bulk planes drawn from its own
//            bulk stream, per-lane draws from its own lane streams;
//   deliver  listener-partitioned: a shard ORs beeped planes only into
//            its own heard rows, pulling first from its local beeper
//            list and then from the other shards' boundary beepers
//            through the partition's per-shard adjacency slices —
//            race-free without atomics;
//   react    each shard runs the kernel's react over its own slice
//            (BatchContext::node_begin/node_end is the shard range);
//   merge    at round boundaries the coordinator (shard 0) merges
//            per-shard MIS joins into the global union, sums per-shard
//            active counts and retires finished lanes with the shared
//            detail::retire_finished_lanes — the same per-lane
//            termination rule every batched front-end uses.
//
// ## RNG contract (kStatisticalLanes only)
//
// The scalar-order contract is unreproducible here twice over: across
// lanes (the batched kScalarOrder draw interleaving) and across shards
// (the sharded kScalarOrder carving is defined for one stream per run,
// not 64).  So this front-end is *statistical-lanes only* — construction
// with kScalarOrder throws — and its determinism contract is: results
// are deterministic per (seed, shard count, lane count), distributed
// like independent scalar runs, but not bit-comparable to any scalar
// seed or other shard count.  Streams are jump()-partitioned per
// (shard, lane): shard s's bulk stream is the base advanced by
// s·(lanes+1) jumps, and its lane-l stream is one more jump per lane —
// disjoint 2^128-output windows for every (shard, lane) pair.  At K = 1
// the lone shard's streams coincide exactly with BatchSimulator's
// statistical seeding, so a one-shard run is bit-identical to the
// batched core (the oracle the tests pin).
//
// Keep-alive reads cross shard lines, so the coordinator snapshots the
// in-MIS planes of the union MIS (mis_mask_) whenever membership
// changes; shards deliver keep-alive from that stable snapshot while
// others are already reacting, which is what makes the
// deliver-then-react sequence barrier-free.
//
// Not supported: kScalarOrder (throws at construction), event traces,
// fault scenarios, recovery tracking — same surface as BatchSimulator.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <optional>
#include <vector>

#include "graph/partition.hpp"
#include "sim/batch.hpp"

namespace beepmis::sim {

class ShardedBatchSimulator {
 public:
  /// Same bound (and rationale) as ShardedSimulator::kMaxShards: a shard
  /// is a worker thread plus n·(K+1)·4 bytes of partition slice index.
  static constexpr unsigned kMaxShards = 256;

  /// Binds `g` and partitions it into (at most) `shards` contiguous
  /// ranges; `shards` is clamped to [1, n].  Worker threads are spawned
  /// per run, one per shard, through support::run_workers.  Throws
  /// std::invalid_argument for any rng_mode other than
  /// kStatisticalLanes (see the RNG contract above).
  ShardedBatchSimulator(const graph::Graph& g, unsigned shards, SimConfig config = {},
                        BatchRngMode rng_mode = BatchRngMode::kStatisticalLanes);
  /// The simulator stores a reference; a temporary graph would dangle.
  ShardedBatchSimulator(graph::Graph&&, unsigned, SimConfig = {},
                        BatchRngMode = BatchRngMode::kStatisticalLanes) = delete;
  /// Unbound simulator: only usable through the graph-taking run overload.
  explicit ShardedBatchSimulator(unsigned shards, SimConfig config = {},
                                 BatchRngMode rng_mode = BatchRngMode::kStatisticalLanes);

  /// Runs `lanes` (1..kMaxBatchLanes) statistical lanes of `protocol` on
  /// the bound graph to per-lane termination (or the round cap).  Returns
  /// the finished batch as a view of this simulator's planes, valid until
  /// its next run; at shard count 1 it is bit-identical to
  /// BatchSimulator's kStatisticalLanes run with the same (graph,
  /// protocol, base, lanes).
  [[nodiscard]] LaneOutcomes run_outcomes(BatchProtocol& protocol,
                                          support::Xoshiro256StarStar base, unsigned lanes);
  /// Rebinds to `g` (rebuilding the partition and fault schedules; like
  /// the sharded core there is no same-size fast path, because the
  /// partition depends on edge data) and runs.  The caller must keep `g`
  /// alive for the duration of the call.
  [[nodiscard]] LaneOutcomes run_outcomes(const graph::Graph& g, BatchProtocol& protocol,
                                          support::Xoshiro256StarStar base, unsigned lanes);
  LaneOutcomes run_outcomes(graph::Graph&&, BatchProtocol&, support::Xoshiro256StarStar,
                            unsigned) = delete;

  /// run_outcomes, extracted into one RunResult per lane.
  [[nodiscard]] std::vector<RunResult> run(BatchProtocol& protocol,
                                           support::Xoshiro256StarStar base, unsigned lanes) {
    return detail::extract_lane_results(run_outcomes(protocol, base, lanes));
  }
  [[nodiscard]] std::vector<RunResult> run(const graph::Graph& g, BatchProtocol& protocol,
                                           support::Xoshiro256StarStar base, unsigned lanes) {
    return detail::extract_lane_results(run_outcomes(g, protocol, base, lanes));
  }
  std::vector<RunResult> run(graph::Graph&&, BatchProtocol&, support::Xoshiro256StarStar,
                             unsigned) = delete;

  /// The active partition (valid once a graph is bound).
  [[nodiscard]] const graph::Partition& partition() const;
  /// Actual shard count after clamping (valid once a graph is bound).
  [[nodiscard]] unsigned shard_count() const noexcept { return partition_.shard_count(); }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] BatchRngMode rng_mode() const noexcept { return rng_mode_; }

 private:
  /// Per-shard execution state: the shard's slice of the frontier
  /// bookkeeping plus its (shard, lane) rng streams.  Cache-line aligned
  /// so shards hammering their own counters do not false-share.
  struct alignas(64) Shard {
    graph::NodeId lo = 0, hi = 0;
    detail::FaultSchedule faults;
    detail::FaultCursor cursor;
    LaneMask mis_crashed = 0;  ///< lanes whose MIS lost a member this round
    std::vector<graph::NodeId> active;  ///< union frontier, this range only
    std::vector<graph::NodeId> beepers;
    /// beepers filtered to boundary nodes, rebuilt every exchange when
    /// K > 1, so the cross-shard merge scans only beeps that can cross a
    /// shard line.
    std::vector<graph::NodeId> boundary_beepers;
    std::vector<graph::NodeId> prev_beepers;
    std::vector<graph::NodeId> heard_dirty;
    std::vector<graph::NodeId> joined;       ///< new MIS joins this round
    std::vector<graph::NodeId> reactivated;  ///< self-healing, this range
    /// Reliable keep-alive cache: listeners in this range with any
    /// keep-alive lane, masks in the shared mis_hear_mask_ (disjoint
    /// writes per shard).
    std::vector<graph::NodeId> mis_hear;
    bool mis_hear_stale = true;
    bool mis_flag_scratch = false;  ///< context sink; staleness is coordinated
    std::vector<std::uint32_t> active_count;         ///< per lane, this slice
    std::vector<std::uint64_t> reactivation_counts;  ///< per lane, this slice
    support::Xoshiro256StarStar bulk{0};
    std::vector<support::Xoshiro256StarStar> rngs;
    /// First exception this shard's work raised; the shard keeps
    /// arriving at every barrier and the coordinator aborts at the next
    /// round boundary (same discipline as ShardedSimulator::Lane).
    std::exception_ptr error;
  };

  void bind_graph(const graph::Graph& g);
  void shard_worker(unsigned s);
  void coordinate_round_boundary();
  void coordinate_exchange_top(unsigned exchange);
  void deliver_shard(Shard& shard, unsigned s);

  const graph::Graph* graph_ = nullptr;
  unsigned requested_shards_ = 1;
  SimConfig config_;
  BatchRngMode rng_mode_ = BatchRngMode::kStatisticalLanes;
  graph::Partition partition_;
  std::vector<Shard> shards_;

  // Per-node bitplanes (bit l = lane l's flag); each shard touches only
  // its own [lo, hi) rows during parallel phases.
  std::vector<LaneMask> live_;
  std::vector<LaneMask> inmis_;
  std::vector<LaneMask> dominated_;
  std::vector<LaneMask> crashed_;
  std::vector<LaneMask> beeped_;
  std::vector<LaneMask> prev_beeped_;
  std::vector<LaneMask> heard_;
  std::vector<std::uint8_t> in_active_;

  /// Global MIS union (any lane, ever) in join-merge order; mutated only
  /// by the coordinator between parallel phases.
  std::vector<graph::NodeId> mis_union_;
  std::vector<std::uint8_t> in_mis_union_;
  /// Coordinator's snapshot of inmis_ over the union, re-taken whenever
  /// membership changes (joins merged, members crashed): shards read the
  /// snapshot during keep-alive delivery while others are reacting, so
  /// no shard ever reads a remote in-MIS plane mid-mutation.
  std::vector<LaneMask> mis_mask_;
  /// Shared reliable keep-alive masks, per listener; each shard's
  /// mis_hear list owns the entries in its own range.
  std::vector<LaneMask> mis_hear_mask_;

  // Per-(node, lane) and per-lane aggregates.
  std::vector<std::uint32_t> beep_counts_;  ///< node-major, lane_count_ stride
  std::vector<std::size_t> lane_rounds_;
  std::vector<std::uint32_t> global_active_count_;   ///< coordinator's per-lane sums
  std::vector<std::uint64_t> reactivation_totals_;   ///< summed over shards
  LaneMask running_ = 0;
  LaneMask terminated_ = 0;

  // Run-scoped coordination state.
  BatchProtocol* protocol_ = nullptr;
  std::optional<std::barrier<>> sync_;
  std::atomic<bool> failed_{false};
  bool first_pass_ = true;
  bool mis_dirty_ = false;
  bool wakeups_pending_ = false;
  bool lossy_ = false;
  double keep_ = 1.0;
  unsigned exchanges_ = 2;
  unsigned lane_count_ = 0;
  std::size_t round_ = 0;
};

}  // namespace beepmis::sim
