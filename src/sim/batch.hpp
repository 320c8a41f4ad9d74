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
// Determinism contract: lane l of a batched run is bit-identical to a scalar BeepSimulator run with the
// same (graph, protocol config, rng).  Each lane owns its own RNG stream
// and consumes it in exactly the scalar order: protocol-reset draws, then
// per round ascending-id emit draws, then (in lossy mode) one Bernoulli
// per potential delivery in ascending beeper order, then keep-alive
// deliveries in per-lane MIS join order.  Lanes that terminate stop
// consuming randomness and freeze their planes.  See src/sim/README.md
// ("Batched lanes") for the full contract.
//
// Not supported (callers must fall back to the scalar core): event traces,
// round observers, and protocols without a batched kernel
// (BeepProtocol::make_batch_protocol() returns nullptr).
#pragma once

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

/// Per-exchange view handed to batched protocols.  Mirrors BeepContext but
/// every query answers for all lanes at once via a LaneMask.
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

  /// Lane l's private RNG stream, identical to the scalar run's rng.
  [[nodiscard]] support::Xoshiro256StarStar& rng(unsigned lane) noexcept {
    return (*rngs_)[lane];
  }

 private:
  friend class BatchSimulator;
  enum class Phase { kEmit, kReact };

  // The context is a bundle of direct pointers into the batched core's
  // bookkeeping (no simulator backpointer).
  const graph::Graph* graph_ = nullptr;
  const std::vector<graph::NodeId>* active_ = nullptr;
  std::vector<LaneMask>* live_ = nullptr;
  std::vector<LaneMask>* inmis_ = nullptr;
  std::vector<LaneMask>* dominated_ = nullptr;
  std::vector<LaneMask>* beeped_ = nullptr;
  const std::vector<LaneMask>* prev_beeped_ = nullptr;
  const std::vector<LaneMask>* heard_ = nullptr;
  std::vector<graph::NodeId>* beepers_ = nullptr;
  /// Bit-sliced beep-episode counts (BatchSimulator::beep_planes_).
  std::vector<LaneMask>* beep_planes_ = nullptr;
  /// Per-lane live-MIS join-order lists (lossy keep-alive draw order);
  /// nullptr when nothing reads them (reliable channel or no keep-alive).
  std::vector<std::vector<graph::NodeId>>* mis_lists_ = nullptr;
  /// Union of every lane's MIS members, deduplicated through in_mis_union_.
  std::vector<graph::NodeId>* mis_union_ = nullptr;
  std::vector<std::uint8_t>* in_mis_union_ = nullptr;
  bool* mis_hear_valid_ = nullptr;
  std::vector<graph::NodeId>* reactivated_ = nullptr;
  std::uint64_t* reactivation_counts_ = nullptr;  ///< per-lane
  const LaneMask* running_ = nullptr;
  std::vector<support::Xoshiro256StarStar>* rngs_ = nullptr;
  std::size_t round_ = 0;
  unsigned exchange_ = 0;
  unsigned lane_count_ = 0;
  Phase phase_ = Phase::kEmit;

  /// Appends count plane `beep_planes_->size() / n` holding `carry` at v
  /// (the carry out of the top plane), or drops it at kMaxBeepPlanes.
  void add_beep_plane(graph::NodeId v, LaneMask carry);
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
  explicit BatchSimulator(SimConfig config = {});

  /// Runs rngs.size() lanes (1..kMaxBatchLanes) of `protocol` on `g` to
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

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  friend class BatchContext;

  void bind_graph(const graph::Graph& g);
  void apply_wakeups_and_crashes();
  void deliver_beeps();
  /// Round boundary: compacts the union frontier, merges reactivated
  /// nodes and recomputes live_any_.
  void compact_active();

  const graph::Graph* graph_ = nullptr;
  SimConfig config_;
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
  /// Per-lane live MIS in join order; filled only under lossy keep-alive,
  /// whose draw order is their one reader.
  std::vector<std::vector<graph::NodeId>> mis_lists_;
  std::vector<std::size_t> lane_rounds_;
  /// Per-(node, lane) beep episodes, bit-sliced and plane-major: bit l of
  /// beep_planes_[j * n + v] is bit j of lane l's count at v.  A plane is
  /// appended only when a carry leaves the top one (LaneOutcomes).
  std::vector<LaneMask> beep_planes_;
  std::vector<std::uint64_t> reactivation_counts_;  ///< per lane (self-healing)
  /// OR of live_ over the union frontier as of the last round boundary:
  /// exactly the lanes whose scalar active list is non-empty.
  LaneMask live_any_ = 0;
  LaneMask running_ = 0;     ///< lanes still executing their round loop
  LaneMask terminated_ = 0;  ///< lanes that finished with an empty active set

  std::size_t round_ = 0;
  unsigned exchange_ = 0;
};

// --- Inline hot path --------------------------------------------------------
// BatchContext::beep runs once per (node, exchange) in the kernel sweeps;
// defining it here lets the kernel translation units inline it.

inline void BatchContext::beep(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kEmit) {
    throw std::logic_error("BatchContext::beep called outside the emit phase");
  }
  if (v >= live_->size() || (lanes & ~(*live_)[v]) != 0) {
    throw std::logic_error("BatchContext::beep outside the node's live lanes");
  }
  LaneMask& plane = (*beeped_)[v];
  const LaneMask fresh = lanes & ~plane;
  if (!fresh) return;
  if (!plane) beepers_->push_back(v);
  plane |= fresh;
  // Scalar episode rule: a beep continuing from the previous exchange of
  // the same round is one signal episode, not two.  The new episodes are
  // one ripple-carry increment of v's bit-sliced counts, all lanes at once.
  LaneMask carry = fresh & ~(*prev_beeped_)[v];
  if (!carry) return;
  const std::size_t n = live_->size();
  for (std::size_t i = v; i < beep_planes_->size(); i += n) {
    LaneMask& count = (*beep_planes_)[i];
    const LaneMask overflow = count & carry;
    count ^= carry;
    carry = overflow;
    if (!carry) return;
  }
  add_beep_plane(v, carry);
}

}  // namespace beepmis::sim
