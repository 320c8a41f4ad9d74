// Synchronous beeping-model simulator.
//
// The beeping model (Afek et al., DISC'11) is the weakest standard
// communication model: in each exchange a node either beeps or listens, and
// a listener learns only the single bit "at least one neighbour beeped".
// One paper "time step" may involve a constant number of exchanges (the MIS
// protocols use two: an intent beep and a join announcement), so the
// simulator runs `Protocol::exchanges_per_round()` exchanges per round.
//
// Design invariants:
//  * The simulator owns node status; protocols request transitions through
//    the context (join_mis / deactivate) and are never allowed to beep or
//    transition on behalf of inactive nodes.
//  * The simulator never auto-deactivates neighbours of a joiner: in the
//    real protocol that knowledge travels via the second-exchange beep, so
//    fault injection (lost beeps) exercises true protocol behaviour.
//  * A run is a pure function of (graph, protocol, rng seed); nodes are
//    visited in ascending id order everywhere.
//
// Performance contract (see src/sim/README.md for the full design): the
// core is *frontier-driven* — per-exchange simulator work is
// O(active + beep deliveries), independent of n.  Beep/heard flags are
// cleared through dirty-lists, the previous-exchange flags are obtained by
// double-buffer swap, beeps are delivered by walking an explicit beeper
// frontier in ascending id order (so lossy-mode RNG draw order is
// bit-identical to a dense scan of the active list), and crash/wake fault
// events come from presorted event queues.  All per-node scratch state is
// reused across runs, and the graph can be rebound between runs so one
// simulator instance amortises its allocations over many trials.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/exchange_core.hpp"
#include "sim/result.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"

namespace beepmis::sim {

struct SimConfig {
  /// Hard cap on rounds; a run that hits it returns terminated = false.
  std::size_t max_rounds = 1u << 20;
  /// Fault injection: each (beeper -> listener) delivery is dropped
  /// independently with this probability.  0 = reliable channel.
  double beep_loss_probability = 0.0;
  /// Record a full event trace (beeps, joins, deactivations).
  bool record_trace = false;
  /// Per-node wake-up rounds (asynchronous start, as studied by Afek et
  /// al. DISC'11).  Empty = everyone starts at round 0.  A node does not
  /// beep, hear, or transition before its wake round.
  std::vector<std::uint32_t> wake_round;
  /// Per-node fail-stop rounds; UINT32_MAX (the default) = never.  A node
  /// still active at the start of its crash round becomes kCrashed and
  /// falls silent forever.
  std::vector<std::uint32_t> crash_round;
  /// DISC'11-style keep-alive: nodes that joined the MIS keep beeping in
  /// every exchange forever, so late wakers (and nodes that lost a join
  /// announcement) still learn they are dominated.  Does not affect
  /// termination (MIS nodes are already inactive) nor beep_counts.
  bool mis_keepalive = false;
  /// Keep simulating (even with no active nodes) until at least this round
  /// — required by maintenance/self-healing experiments where scheduled
  /// crashes and reactivations happen after the initial MIS converges.
  std::size_t run_until_round = 0;
  /// Adaptive fault adversary consulted at every round boundary, layered
  /// on top of (after) the static wake/crash vectors; see sim/scenario.hpp
  /// for the event semantics and determinism contract.  Scalar
  /// BeepSimulator only — the batched and sharded simulators reject it
  /// (the trial harness materialises kStaticSchedule scenarios into
  /// crash_round vectors to keep those fast paths).  The scenario does not
  /// extend the run: set run_until_round to cover its event window.  The
  /// instance is stateful per run (reset() is called at every run start),
  /// so it must not be shared between concurrently running simulators —
  /// clone() exists for exactly that.
  std::shared_ptr<FaultScenario> scenario;
  /// Collect per-disruption recovery-time samples (RunResult::
  /// recovery_rounds): a disruption opens at a round where an MIS member
  /// crashes or a crashed node revives, and closes at the next round
  /// boundary where no node is active, no wake is pending, and the
  /// surviving nodes form a valid MIS.  Scalar BeepSimulator only; the
  /// validity check is O(n + m) but only runs when the state changed since
  /// it last failed.
  bool track_recovery = false;
  /// Cooperative cancellation deadline: when set, the run loop compares
  /// steady_now_ns() against the stored value at every round boundary and
  /// throws RunCancelled once it is exceeded.  The value is an atomic so a
  /// harness can move the deadline per trial (or per watchdog decision)
  /// without rebuilding the simulator; nullptr (the default) costs one
  /// pointer test per round.  Honoured by the scalar, batched and sharded
  /// simulators (the sharded core checks it on its coordinator at the
  /// round boundary, where a throw parks like any shard error and unwinds
  /// no barrier), and by the LOCAL simulator through
  /// LocalSimConfig::deadline_ns.  A protocol that never returns from
  /// emit/react cannot be cancelled by anything in-process; that is what
  /// the process-level kill-and-resume path (exp/journal.hpp) is for.
  std::shared_ptr<const std::atomic<std::int64_t>> deadline_ns;
  /// Sharded simulators only: materialize per-shard reordered CSR copies
  /// (graph::Partition::materialize_local_adjacency) at graph-bind time, so
  /// each lane's delivery sweep reads a contiguous shard-local array
  /// instead of strided slices of the shared adjacency.  Pays one extra
  /// copy of the adjacency in RAM for locality — the intended pairing with
  /// a memory-mapped shared CSR (graph/csr_file.hpp), where the shared
  /// array may be cold disk pages.  Results are bit-identical either way.
  /// Ignored by the scalar and (unsharded) batched simulators.
  bool shard_local_adjacency = false;
};

class BeepSimulator;
class ShardedSimulator;

namespace detail {
/// Where a context's mutations land.  The scalar core wires one sink at
/// the simulator's own bookkeeping; the sharded core wires one sink per
/// lane, which is what lets K lanes run one protocol's emit/react
/// concurrently over disjoint node ranges without sharing any mutable
/// list.  [lo, hi) is the id range this context may mutate (the whole
/// graph for the scalar core).
struct MutationSink {
  std::vector<graph::NodeId>* beepers = nullptr;
  std::vector<std::uint32_t>* beep_counts = nullptr;  ///< global array
  std::uint64_t* total_beeps = nullptr;               ///< per-lane counter
  /// Where join_mis records the new member: the live-MIS join-order list
  /// itself (scalar) or a per-lane new-joins list merged at the round
  /// boundary (sharded).
  std::vector<graph::NodeId>* mis_joins = nullptr;
  /// Cleared on join so the reliable-channel keep-alive cache re-derives.
  bool* mis_hear_valid = nullptr;
  std::vector<graph::NodeId>* reactivated = nullptr;
  /// Reactivate calls through this sink (per-lane in the sharded core;
  /// lanes are summed into RunResult::reactivations at run end).
  std::uint64_t reactivations = 0;
  Trace* trace = nullptr;  ///< nullptr = not recording
  graph::NodeId lo = 0, hi = 0;
};
}  // namespace detail

/// Per-exchange view handed to protocols.  All mutating calls validate
/// their preconditions and throw std::logic_error on protocol bugs.
class BeepContext {
 public:
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] unsigned exchange() const noexcept { return exchange_; }

  /// Active node ids, ascending.  The list is compacted only at round
  /// boundaries: a node deactivated in an earlier exchange of the current
  /// round still appears here, so protocols iterating it in later exchanges
  /// must check is_active(v) first.
  [[nodiscard]] const std::vector<graph::NodeId>& active_nodes() const noexcept {
    return *active_;
  }

  /// The id range [node_begin, node_end) this context may mutate: the whole
  /// graph on the scalar path, one shard's slice on the sharded path.
  /// Protocols whose react scans *all* nodes (not just active ones — e.g.
  /// self-healing silence counters) must restrict that scan to this range
  /// or the sharded core would visit each node K times.
  [[nodiscard]] graph::NodeId node_begin() const noexcept { return sink_->lo; }
  [[nodiscard]] graph::NodeId node_end() const noexcept { return sink_->hi; }

  [[nodiscard]] bool is_active(graph::NodeId v) const { return status_->at(v) == NodeStatus::kActive; }
  [[nodiscard]] NodeStatus status(graph::NodeId v) const { return status_->at(v); }

  /// Whether v beeped in the current exchange (valid during react).
  [[nodiscard]] bool beeped(graph::NodeId v) const { return beeped_->at(v); }
  /// Whether v heard at least one beep in the current exchange (valid
  /// during react; accounts for injected beep loss).
  [[nodiscard]] bool heard(graph::NodeId v) const { return heard_->at(v); }

  /// Emit-phase only: make active node v beep this exchange.  A node that
  /// was already beeping in the previous exchange of the same round is
  /// treated as *continuing* one signal (Table 1's "keep signalling"), so
  /// beep_counts record signal episodes, matching the paper's Figure 5
  /// beep accounting.
  void beep(graph::NodeId v);
  /// React-phase only: active node v joins the MIS (becomes inactive).
  void join_mis(graph::NodeId v);
  /// React-phase only: active node v becomes dominated (inactive).
  void deactivate(graph::NodeId v);
  /// React-phase only: *dominated* node v resumes competing (self-healing
  /// protocols; takes effect from the next round).
  void reactivate(graph::NodeId v);

  /// Deterministic per-run randomness shared by the protocol.
  [[nodiscard]] support::Xoshiro256StarStar& rng() noexcept { return *rng_; }

 private:
  friend class BeepSimulator;
  friend class DenseReferenceSimulator;  ///< seed-path reference (dense_ref.hpp)
  friend class ShardedSimulator;         ///< per-lane contexts (sharded.hpp)
  enum class Phase { kEmit, kReact, kObserve };

  const graph::Graph* graph_ = nullptr;
  const std::vector<graph::NodeId>* active_ = nullptr;
  std::vector<NodeStatus>* status_ = nullptr;
  std::vector<std::uint8_t>* beeped_ = nullptr;
  const std::vector<std::uint8_t>* prev_beeped_ = nullptr;
  const std::vector<std::uint8_t>* heard_ = nullptr;
  support::Xoshiro256StarStar* rng_ = nullptr;
  detail::MutationSink* sink_ = nullptr;
  std::size_t round_ = 0;
  unsigned exchange_ = 0;
  Phase phase_ = Phase::kEmit;
};

class BatchProtocol;

/// Sharded-execution capability of a protocol (see sim/sharded.hpp and the
/// "Sharded execution" section of src/sim/README.md).  supported == false
/// (the default) keeps the protocol on the scalar path.  A protocol that
/// declares support promises the sharded draw-order contract:
///
///  * emit() iterates ctx.active_nodes() in ascending order and consumes
///    exactly emit_draws_per_entry[ctx.exchange()] rng outputs per list
///    entry, each via a single-output draw (bernoulli / uniform01),
///    regardless of per-node state — this is what lets the sharded driver
///    carve per-shard windows out of the scalar rng stream by count;
///  * react(), and any state emit() touches besides the rng, is per-node:
///    concurrent calls over disjoint node ranges must be safe, and neither
///    emit nor react may draw randomness outside the declared counts;
///  * joins happen only in the final exchange of a round (keep-alive
///    bookkeeping is merged across shards at round boundaries);
///  * reset() may draw freely (it runs serially on the base stream).
struct ShardSupport {
  bool supported = false;
  /// Size exchanges_per_round() when supported.
  std::vector<unsigned> emit_draws_per_entry;
};

/// Interface implemented by beeping protocols (see src/mis/).
class BeepProtocol {
 public:
  virtual ~BeepProtocol() = default;

  /// Batched kernel for this protocol, or nullptr when no 64-lane
  /// implementation exists (the default).  A non-null kernel is a
  /// contract: lane l of a BatchSimulator run with it must be
  /// bit-identical to a scalar run of *this exact* protocol — overrides in
  /// non-final classes must therefore guard against subclasses inheriting
  /// them (see LocalFeedbackMis).  Callers that get nullptr use the scalar
  /// path.
  [[nodiscard]] virtual std::unique_ptr<BatchProtocol> make_batch_protocol() const;

  /// Sharded-execution declaration; default: not supported.  Like
  /// make_batch_protocol, an override in a non-final class must refuse
  /// subclasses (typeid guard) — a subclass may add behaviour (extra
  /// draws, cross-node state) that breaks the sharded contract.
  [[nodiscard]] virtual ShardSupport shard_support() const;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Number of exchanges per paper time step (>= 1).
  [[nodiscard]] virtual unsigned exchanges_per_round() const = 0;
  /// Called once before each run; must fully (re)initialise every piece of
  /// per-run state for `g` (assign, not resize).  One protocol instance may
  /// be reused for many runs on many graphs — the trial harness does
  /// exactly that — so any state surviving reset() makes results depend on
  /// run order and breaks the pure-function-of-(graph, protocol config,
  /// seed) contract.
  virtual void reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) = 0;
  /// Decide which active nodes beep in this exchange (call ctx.beep(v)).
  virtual void emit(BeepContext& ctx) = 0;
  /// Observe heard/beeped flags; request joins/deactivations.
  virtual void react(BeepContext& ctx) = 0;
};

/// The simulator.  One instance may execute many runs, on the same graph or
/// (via the graph-rebinding run overload) on a different graph per run;
/// scratch state is reused across runs either way.
class BeepSimulator {
 public:
  explicit BeepSimulator(const graph::Graph& g, SimConfig config = {});
  /// The simulator stores a reference; a temporary graph would dangle.
  explicit BeepSimulator(graph::Graph&&, SimConfig = {}) = delete;
  /// Unbound simulator: only usable through the graph-taking run overload.
  explicit BeepSimulator(SimConfig config = {});

  /// Executes `protocol` to termination (or the round cap) using `rng` on
  /// the graph bound at construction (or the last rebinding run).
  [[nodiscard]] RunResult run(BeepProtocol& protocol, support::Xoshiro256StarStar rng);
  /// Rebinds the simulator to `g` (revalidating per-node config vectors)
  /// and runs.  The flag/frontier scratch buffers are reused, so a trial
  /// loop that calls this with per-trial graphs stops allocating for them
  /// once the high-water graph size has been seen; only the status and
  /// beep-count vectors are reallocated per run, because RunResult takes
  /// them by move.  The caller must keep `g` alive for the duration of the
  /// call.
  [[nodiscard]] RunResult run(const graph::Graph& g, BeepProtocol& protocol,
                              support::Xoshiro256StarStar rng);
  /// A temporary graph would leave the simulator bound to a destroyed
  /// object (same trap the deleted rvalue constructor blocks).
  RunResult run(graph::Graph&&, BeepProtocol&, support::Xoshiro256StarStar) = delete;

  /// Event trace of the most recent run (empty unless config.record_trace).
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

  /// Observer invoked after every round with the end-of-round context
  /// (status and heard/beeped flags of the final exchange).  Used by the
  /// dynamics instrumentation; pass nullptr to clear.
  using RoundObserver = std::function<void(const BeepContext&)>;
  void set_round_observer(RoundObserver observer) { observer_ = std::move(observer); }

 protected:
  // Protected (not private) so DenseReferenceSimulator — the preserved
  // seed-path core used for perf baselines and differential testing — can
  // reuse the scratch state and context plumbing; see sim/dense_ref.hpp.
  friend class BeepContext;

  void bind_graph(const graph::Graph& g);
  void deliver_beeps(support::Xoshiro256StarStar& rng);
  void compact_active();
  /// Returns the outcome so the run loop can open recovery disruptions on
  /// MIS-member crashes.
  detail::FaultOutcome apply_wakeups_and_crashes();
  /// Consults config_.scenario and applies its events (wakes, then
  /// crashes, then revives, ascending node id within each kind).  Returns
  /// true when the round was *disruptive* for recovery tracking (an MIS
  /// member crashed or a node revived).
  bool apply_scenario_events();
  /// Recovery-SLA bookkeeping at the round boundary (track_recovery only).
  void update_recovery(bool state_may_have_changed);
  /// Whether the current quiescent state is a valid MIS over the surviving
  /// (non-crashed) nodes.  O(n + m); callers gate it behind a dirty flag.
  [[nodiscard]] bool quiescent_state_valid() const;

  const graph::Graph* graph_ = nullptr;
  SimConfig config_;
  Trace trace_;
  RoundObserver observer_;

  /// Fault schedule (presorted events + round-0 frontier), built once per
  /// graph binding; the per-run cursor walks it (see sim/exchange_core.hpp,
  /// which the sharded core shares per lane).
  detail::FaultSchedule faults_;
  detail::FaultCursor fault_cursor_;
  /// Size the schedule above was built for (graph_ may dangle between
  /// rebinding runs, so the size is cached rather than read through it).
  graph::NodeId bound_node_count_ = 0;

  // Per-run scratch state (reused across runs; dirty-list cleared).
  std::vector<NodeStatus> status_;
  std::vector<graph::NodeId> active_;
  std::vector<std::uint8_t> in_active_;      ///< membership bitmap of active_
  std::vector<std::uint8_t> beeped_;
  std::vector<std::uint8_t> prev_beeped_;
  std::vector<std::uint8_t> heard_;
  std::vector<graph::NodeId> beepers_;       ///< frontier: set bits of beeped_
  std::vector<graph::NodeId> prev_beepers_;  ///< set bits of prev_beeped_
  std::vector<graph::NodeId> heard_dirty_;   ///< set bits of heard_
  std::vector<std::uint32_t> beep_counts_;
  std::vector<graph::NodeId> mis_nodes_;     ///< live MIS frontier, join order
  /// Reliable-channel keep-alive cache: the deduplicated neighbour set of
  /// mis_nodes_ (the nodes keep-alive delivery reaches), re-derived only
  /// when the MIS frontier changes (join / member crash).  Turns the static
  /// tail's per-exchange keep-alive cost from O(sum deg of MIS) into
  /// O(|N(MIS)|).  Unused in lossy mode, where every potential delivery
  /// must consume its own Bernoulli draw.
  std::vector<graph::NodeId> mis_hear_;
  std::vector<std::uint8_t> in_mis_hear_;    ///< membership bitmap of mis_hear_
  bool mis_hear_valid_ = false;
  std::vector<graph::NodeId> reactivated_;   ///< pending re-entries to active_
  // Fault-scenario and recovery-SLA per-run state.
  std::vector<ScenarioEvent> scenario_events_;   ///< per-round scratch
  std::vector<std::uint32_t> open_disruptions_;  ///< start rounds, open
  std::vector<std::uint32_t> recovery_rounds_;   ///< closed-disruption samples
  bool recovery_dirty_ = true;   ///< statuses changed since last validity check
  bool recovery_valid_ = false;  ///< cached quiescent_state_valid() result
  std::uint64_t total_beeps_ = 0;
  std::size_t round_ = 0;
  unsigned exchange_ = 0;
  bool trace_enabled_ = false;
};

}  // namespace beepmis::sim
