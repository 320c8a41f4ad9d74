// Batched multi-seed beeping simulator: up to 64 independent trials (one
// per bit lane) of the *same* graph and SimConfig advance in lock-step
// through one structure-of-arrays sweep.
//
// Layout: every per-node flag of the scalar BeepSimulator (beeped, heard,
// prev-beeped, live/active, in-MIS, dominated, crashed) becomes a per-node
// std::uint64_t *bitplane* whose bit l is lane l's flag.  A single pass
// over the CSR adjacency then delivers beeps for all lanes at once —
// heard[w] |= beeped[v] is one 8-byte OR where the scalar core performs up
// to 64 separate byte stores — so the trial sweep is memory-bandwidth-bound
// instead of lane-bound.  A union-of-lanes frontier (nodes active in at
// least one lane) drives the activity-bound tail exactly as in the scalar
// core.
//
// Determinism contract (BatchRngMode::kScalarOrder, the default): lane l
// of a batched run is bit-identical to a scalar BeepSimulator run with the
// same (graph, protocol config, rng).  Each lane owns its own RNG stream
// and consumes it in exactly the scalar order: protocol-reset draws, then
// per round ascending-id emit draws, then (in lossy mode) one Bernoulli
// per potential delivery in ascending beeper order, then keep-alive
// deliveries in per-lane MIS join order.  Lanes that terminate stop
// consuming randomness and freeze their planes.  See src/sim/README.md
// ("Batched lanes") for the full contract.
//
// BatchRngMode::kStatisticalLanes (opt-in) relaxes that contract to
// per-lane *marginal distributions*: the run is seeded by one base stream,
// lane l draws from the base advanced by l+1 jump() calls (deterministic
// per (seed, lane), no scalar draw-order carving), and the base stream
// itself becomes a shared bulk-plane stream from which kernels draw one
// 64-bit word per Bernoulli *plane* — all lanes of a dyadic exponent
// bucket, or all lanes of a lossy edge delivery, decided at once.  Results
// are deterministic per (seed, lane count, mode) but not comparable
// seed-for-seed with scalar runs; see src/sim/README.md ("Statistical
// lanes") for when the trade is sound.
//
// Not supported (callers must fall back to the scalar core): event traces,
// round observers, and protocols without a batched kernel
// (BeepProtocol::make_batch_protocol() returns nullptr).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/beep.hpp"
#include "sim/exchange_core.hpp"
#include "sim/result.hpp"
#include "support/rng.hpp"

namespace beepmis::sim {

// kMaxBatchLanes and LaneMask live in sim/exchange_core.hpp (included
// above) alongside the plane half of the exchange engine.

class BatchSimulator;
class ShardedBatchSimulator;

/// Per-exchange view handed to batched protocols.  Mirrors BeepContext but
/// every query answers for all lanes at once via a LaneMask.  Like the
/// scalar context it is wired at a *sink*: the batched front-end wires one
/// context covering [0, n); the sharded-batched front-end wires one per
/// Partition slice, which is what lets K shards run one kernel's
/// emit/react concurrently over disjoint node ranges.
class BatchContext {
 public:
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] unsigned exchange() const noexcept { return exchange_; }
  [[nodiscard]] unsigned lane_count() const noexcept { return lane_count_; }

  /// Union frontier: nodes active in at least one lane, ascending.  Like
  /// the scalar active list it is compacted only at round boundaries, so
  /// entries may have an empty live_mask(); protocols must skip those.
  [[nodiscard]] const std::vector<graph::NodeId>& active_nodes() const noexcept {
    return *active_;
  }

  /// The id range [node_begin, node_end) this context may mutate: the whole
  /// graph in the batched core, one shard's slice in the sharded-batched
  /// core.  Kernels whose react scans *all* nodes (not just active ones —
  /// e.g. self-healing silence counters) must restrict that scan to this
  /// range or the sharded-batched core would visit each node K times.
  [[nodiscard]] graph::NodeId node_begin() const noexcept { return lo_; }
  [[nodiscard]] graph::NodeId node_end() const noexcept { return hi_; }

  /// Lanes in which v is active and awake (i.e. on lane l's active list).
  [[nodiscard]] LaneMask live_mask(graph::NodeId v) const { return (*live_)[v]; }
  /// Lanes in which v beeped this exchange (valid during react).
  [[nodiscard]] LaneMask beeped_mask(graph::NodeId v) const { return (*beeped_)[v]; }
  /// Lanes in which v heard at least one beep this exchange (valid during
  /// react; accounts for injected beep loss).
  [[nodiscard]] LaneMask heard_mask(graph::NodeId v) const { return (*heard_)[v]; }
  /// Lanes in which v is dominated (maintenance protocols inspect these
  /// between the usual frontier sweeps; crashed lanes are never dominated).
  [[nodiscard]] LaneMask dominated_mask(graph::NodeId v) const { return (*dominated_)[v]; }
  /// Lanes still executing their round loop.  A lane that left the loop
  /// (scalar termination point) has frozen planes; maintenance protocols
  /// must mask any state they keep per round — silence counters,
  /// reactivations — with this, or they would keep mutating lanes whose
  /// scalar run has already returned.
  [[nodiscard]] LaneMask running_mask() const noexcept { return *running_; }

  /// Emit-phase only: v beeps in `lanes` (must be a subset of live_mask(v)).
  /// Beep-episode accounting matches the scalar core: a lane's beep
  /// continuing from the previous exchange of the same round is one episode.
  void beep(graph::NodeId v, LaneMask lanes);
  /// React-phase only: v joins the MIS in `lanes` (subset of live_mask(v)).
  void join_mis(graph::NodeId v, LaneMask lanes);
  /// React-phase only: v becomes dominated in `lanes` (subset of
  /// live_mask(v), disjoint from any lanes joined this call site).
  void deactivate(graph::NodeId v, LaneMask lanes);
  /// React-phase only: *dominated* node v resumes competing in `lanes`
  /// (subset of dominated_mask(v) & running_mask(); self-healing
  /// protocols).  Mirrors the scalar BeepContext::reactivate: takes effect
  /// from the next round, when v rejoins the union active frontier.
  void reactivate(graph::NodeId v, LaneMask lanes);

  /// Lane l's private RNG stream.  In kScalarOrder mode it is identical to
  /// the scalar run's rng; in kStatisticalLanes mode it is the lane's
  /// jump()-partitioned stream (for draws that cannot be vectorised, e.g.
  /// per-lane heterogeneous probabilities).
  [[nodiscard]] support::Xoshiro256StarStar& rng(unsigned lane) noexcept {
    return (*rngs_)[lane];
  }

  /// The simulator's draw-entropy mode; kernels that vectorise draws must
  /// branch on this (the bulk-plane APIs below throw in kScalarOrder).
  [[nodiscard]] BatchRngMode rng_mode() const noexcept { return rng_mode_; }

  // --- Bulk-plane draws (kStatisticalLanes only) -----------------------
  // One shared stream serves all lanes: every call consumes whole 64-bit
  // outputs, bit l of a plane is an independent fair bit for lane l.  The
  // draw *count* of the masked variants depends on the mask (early exit
  // once every requested lane is decided), which is fine — statistical
  // mode has no draw-order contract — but it is why results depend on the
  // lane count as well as the seed.

  /// 64 independent fair bits, one per lane (callers mask as needed).
  [[nodiscard]] LaneMask random_plane();
  /// Independent Bernoulli(2^-k) bits for the lanes in `lanes` (zero
  /// elsewhere): the AND of k planes, early-exiting once no requested lane
  /// survives, so the expected cost is min(k, ~log2(popcount(lanes)) + 1)
  /// draws.  k >= 1075 returns the empty plane without drawing, matching
  /// bernoulli_pow2's underflow-to-never endpoint.
  [[nodiscard]] LaneMask bernoulli_plane_pow2(unsigned k, LaneMask lanes);
  /// Independent Bernoulli(p) bits for the lanes in `lanes`: each lane's
  /// uniform bit stream is compared against the binary expansion of p and
  /// the first differing bit decides, so the draw is exact for every
  /// double p at ~log2(popcount(lanes)) + 2 expected planes — where the
  /// scalar path spends popcount(lanes) serially dependent rng() calls.
  [[nodiscard]] LaneMask bernoulli_plane(double p, LaneMask lanes);

 private:
  friend class BatchSimulator;
  friend class ShardedBatchSimulator;
  enum class Phase { kEmit, kReact };

  // The context is a bundle of direct pointers into its front-end's
  // bookkeeping (no simulator backpointer): the batched core wires one
  // context at its global arrays; the sharded-batched core wires one per
  // shard, pointing the mutable lists (beepers, joins, reactivations,
  // active counts) at per-shard storage while the planes stay global
  // (each shard writes only its own [lo, hi) rows).
  const graph::Graph* graph_ = nullptr;
  const std::vector<graph::NodeId>* active_ = nullptr;
  std::vector<LaneMask>* live_ = nullptr;
  std::vector<LaneMask>* inmis_ = nullptr;
  std::vector<LaneMask>* dominated_ = nullptr;
  std::vector<LaneMask>* beeped_ = nullptr;
  const std::vector<LaneMask>* prev_beeped_ = nullptr;
  const std::vector<LaneMask>* heard_ = nullptr;
  std::vector<graph::NodeId>* beepers_ = nullptr;
  std::uint32_t* beep_counts_ = nullptr;  ///< node-major, lane_count_ stride
  std::uint32_t* active_count_ = nullptr;  ///< per-lane, this context's slice
  /// Per-lane live-MIS join-order lists; nullptr when the front-end does
  /// not maintain them (the sharded-batched core is statistical-only, so
  /// nothing consumes join order).
  std::vector<std::vector<graph::NodeId>>* mis_lists_ = nullptr;
  /// Where join_mis records new members: the global union list (batched
  /// core, deduplicated through in_mis_union_) or a per-shard new-joins
  /// list merged at the round boundary (sharded-batched core, dedup at the
  /// coordinator; in_mis_union_ is nullptr there).
  std::vector<graph::NodeId>* mis_joins_ = nullptr;
  std::vector<std::uint8_t>* in_mis_union_ = nullptr;
  bool* mis_hear_valid_ = nullptr;
  std::vector<graph::NodeId>* reactivated_ = nullptr;
  std::uint64_t* reactivation_counts_ = nullptr;  ///< per-lane
  const LaneMask* running_ = nullptr;
  /// Bulk-plane stream (kStatisticalLanes): the batched core's base
  /// stream, or this shard's own bulk stream in the sharded-batched core.
  support::Xoshiro256StarStar* bulk_rng_ = nullptr;
  std::vector<support::Xoshiro256StarStar>* rngs_ = nullptr;
  BatchRngMode rng_mode_ = BatchRngMode::kScalarOrder;
  graph::NodeId lo_ = 0, hi_ = 0;
  std::size_t round_ = 0;
  unsigned exchange_ = 0;
  unsigned lane_count_ = 0;
  Phase phase_ = Phase::kEmit;
};

/// Batched counterpart of BeepProtocol.  Implementations must reproduce the
/// scalar protocol's per-lane behaviour exactly, including every RNG draw:
/// lane l of reset()/emit()/react() consumes rngs[l] precisely as the
/// scalar protocol would consume its run RNG.
class BatchProtocol {
 public:
  virtual ~BatchProtocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual unsigned exchanges_per_round() const = 0;
  /// Called once before each batched run; must fully (re)initialise all
  /// per-lane state.  `rngs[l]` is lane l's stream (draw order per lane
  /// must match the scalar reset).
  virtual void reset(const graph::Graph& g,
                     std::span<support::Xoshiro256StarStar> rngs) = 0;
  /// Decide which (node, lane) pairs beep this exchange (ctx.beep).
  virtual void emit(BatchContext& ctx) = 0;
  /// Observe heard/beeped planes; request joins/deactivations.
  virtual void react(BatchContext& ctx) = 0;
};

/// The batched simulator.  One instance may execute many batches (scratch
/// reused); each run() takes the per-lane RNGs by value, one per trial.
class BatchSimulator {
 public:
  /// record_trace is unsupported in the batched core (throws).
  explicit BatchSimulator(SimConfig config = {},
                          BatchRngMode rng_mode = BatchRngMode::kScalarOrder);

  /// kScalarOrder only (throws std::logic_error otherwise): runs
  /// rngs.size() lanes (1..kMaxBatchLanes) of `protocol` on `g` to
  /// per-lane termination (or the round cap).  Returns the finished
  /// batch as a view of this simulator's planes, valid until its next
  /// run; lane l is bit-identical to scalar BeepSimulator::run(g,
  /// scalar_protocol, rngs[l]).  The caller must keep `g` alive for the
  /// duration of the call.
  [[nodiscard]] LaneOutcomes run_outcomes(const graph::Graph& g, BatchProtocol& protocol,
                                          std::vector<support::Xoshiro256StarStar> rngs);
  LaneOutcomes run_outcomes(graph::Graph&&, BatchProtocol&,
                            std::vector<support::Xoshiro256StarStar>) = delete;
  /// run_outcomes, extracted into one RunResult per lane.
  [[nodiscard]] std::vector<RunResult> run(const graph::Graph& g, BatchProtocol& protocol,
                                           std::vector<support::Xoshiro256StarStar> rngs) {
    return detail::extract_lane_results(run_outcomes(g, protocol, std::move(rngs)));
  }
  RunResult run(graph::Graph&&, BatchProtocol&,
                std::vector<support::Xoshiro256StarStar>) = delete;

  /// kStatisticalLanes only (throws std::logic_error otherwise): runs
  /// `lanes` lanes seeded from one base stream — lane l draws from `base`
  /// advanced by l+1 jump() calls, and `base` itself becomes the shared
  /// bulk-plane stream — so lane l's stream depends only on (seed, l).
  /// Per-lane results are distributed like independent scalar runs but are
  /// not bit-comparable to any scalar seed; they are deterministic per
  /// (seed, lane count).  The view is valid until this simulator's next run.
  [[nodiscard]] LaneOutcomes run_outcomes(const graph::Graph& g, BatchProtocol& protocol,
                                          support::Xoshiro256StarStar base, unsigned lanes);
  LaneOutcomes run_outcomes(graph::Graph&&, BatchProtocol&, support::Xoshiro256StarStar,
                            unsigned) = delete;
  /// run_outcomes, extracted into one RunResult per lane.
  [[nodiscard]] std::vector<RunResult> run(const graph::Graph& g, BatchProtocol& protocol,
                                           support::Xoshiro256StarStar base, unsigned lanes) {
    return detail::extract_lane_results(run_outcomes(g, protocol, base, lanes));
  }
  RunResult run(graph::Graph&&, BatchProtocol&, support::Xoshiro256StarStar,
                unsigned) = delete;

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] BatchRngMode rng_mode() const noexcept { return rng_mode_; }

 private:
  friend class BatchContext;

  void bind_graph(const graph::Graph& g);
  void apply_wakeups_and_crashes();
  void deliver_beeps();
  void compact_active();
  [[nodiscard]] LaneOutcomes run_lanes(const graph::Graph& g, BatchProtocol& protocol,
                                       std::vector<support::Xoshiro256StarStar> rngs);

  const graph::Graph* graph_ = nullptr;
  SimConfig config_;
  BatchRngMode rng_mode_ = BatchRngMode::kScalarOrder;
  /// Shared bulk-plane stream (kStatisticalLanes only): the run's base
  /// stream, disjoint from every jump()-partitioned lane stream for the
  /// first 2^128 outputs.
  support::Xoshiro256StarStar bulk_rng_{0};
  unsigned lane_count_ = 0;

  /// Fault schedule (presorted events + round-0 frontier), built once per
  /// graph binding — the same detail::FaultSchedule the scalar and sharded
  /// cores walk; the schedule is part of SimConfig and therefore shared by
  /// every lane.
  detail::FaultSchedule faults_;
  detail::FaultCursor fault_cursor_;
  graph::NodeId bound_node_count_ = 0;

  // Per-node bitplanes (bit l = lane l's flag).
  std::vector<LaneMask> live_;       ///< on lane's active list
  std::vector<LaneMask> inmis_;      ///< joined the MIS (live members only)
  std::vector<LaneMask> dominated_;  ///< dominated
  std::vector<LaneMask> crashed_;    ///< fail-stopped
  std::vector<LaneMask> beeped_;
  std::vector<LaneMask> prev_beeped_;
  std::vector<LaneMask> heard_;

  // Union frontiers and dirty lists over the planes.
  std::vector<graph::NodeId> active_;       ///< union active frontier, ascending
  std::vector<std::uint8_t> in_active_;     ///< membership bitmap of active_
  std::vector<graph::NodeId> beepers_;      ///< nodes with any beeped_ bit
  std::vector<graph::NodeId> prev_beepers_;
  std::vector<graph::NodeId> heard_dirty_;  ///< nodes with any heard_ bit
  std::vector<graph::NodeId> mis_union_;    ///< nodes with any inmis_ bit, ever
  std::vector<std::uint8_t> in_mis_union_;
  /// Reliable-channel keep-alive cache (per-lane analogue of the scalar
  /// mis_hear_): node w hears keep-alive in lanes mis_hear_mask_[w], for
  /// each w in mis_hear_.  Re-derived only when any lane's MIS changes, so
  /// a static tail exchange applies one cached (node, mask) list for all
  /// 64 lanes instead of 64 CSR walks.  Unused in lossy mode.
  std::vector<LaneMask> mis_hear_mask_;
  std::vector<graph::NodeId> mis_hear_;
  bool mis_hear_valid_ = false;
  /// Nodes reactivated this round (self-healing); merged into the union
  /// active frontier at the round boundary, like the scalar reactivated_.
  std::vector<graph::NodeId> reactivated_;

  // Per-lane state.
  std::vector<support::Xoshiro256StarStar> rngs_;
  std::vector<std::vector<graph::NodeId>> mis_lists_;  ///< per-lane live MIS, join order
  std::vector<std::uint32_t> active_count_;            ///< per-lane |active list|
  std::vector<std::size_t> lane_rounds_;
  /// Per-(node, lane) beep episodes, node-major: beep_counts_[v * lanes + l].
  std::vector<std::uint32_t> beep_counts_;
  std::vector<std::uint64_t> reactivation_counts_;  ///< per lane (self-healing)
  LaneMask running_ = 0;     ///< lanes still executing their round loop
  LaneMask terminated_ = 0;  ///< lanes that finished with an empty active set

  std::size_t round_ = 0;
  unsigned exchange_ = 0;
};

// --- Inline hot paths -------------------------------------------------------
// BatchContext::beep and the bulk-plane draws run once per (node, exchange)
// or per exponent chunk in the kernel sweeps; defining them here lets the
// kernel translation units inline them.  The plane arithmetic itself lives
// in sim/exchange_core.hpp (detail::plane_bernoulli*), shared with the
// sharded-batched front-end; these wrappers add only the mode check.

inline LaneMask BatchContext::random_plane() {
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error("BatchContext::random_plane requires kStatisticalLanes");
  }
  return (*bulk_rng_)();
}

inline LaneMask BatchContext::bernoulli_plane_pow2(unsigned k, LaneMask lanes) {
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error("BatchContext::bernoulli_plane_pow2 requires kStatisticalLanes");
  }
  return detail::plane_bernoulli_pow2(*bulk_rng_, k, lanes);
}

inline LaneMask BatchContext::bernoulli_plane(double p, LaneMask lanes) {
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error("BatchContext::bernoulli_plane requires kStatisticalLanes");
  }
  return detail::plane_bernoulli(*bulk_rng_, p, lanes);
}

inline void BatchContext::beep(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kEmit) {
    throw std::logic_error("BatchContext::beep called outside the emit phase");
  }
  if (v < lo_ || v >= hi_ || (lanes & ~(*live_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::beep outside the node's live lanes or this shard's range");
  }
  LaneMask& plane = (*beeped_)[v];
  const LaneMask fresh = lanes & ~plane;
  if (!fresh) return;
  if (!plane) beepers_->push_back(v);
  plane |= fresh;
  // Scalar episode rule: a beep continuing from the previous exchange of
  // the same round is one signal episode, not two.  Per-lane episode
  // *totals* are derived from these counts at extraction time, so each
  // episode costs exactly one scatter increment here.
  std::uint32_t* counts = &beep_counts_[static_cast<std::size_t>(v) * lane_count_];
  for (LaneMask b = fresh & ~(*prev_beeped_)[v]; b != 0; b &= b - 1) {
    ++counts[std::countr_zero(b)];
  }
}

}  // namespace beepmis::sim
