// Shared per-exchange machinery of the frontier-driven simulators — ONE
// exchange engine behind every front-end.
//
// The flag half: BeepSimulator (one lane covering [0, n)) and
// ShardedSimulator (K lanes, one per contiguous node range) execute the
// same exchange — clear flags through dirty lists, deliver beeps by
// walking an explicit beeper frontier, apply presorted fault events,
// compact the active list at round boundaries.  The plane half (bottom of
// this header) is the 64-lane bitplane analogue driving BatchSimulator:
// LaneMask planes instead of uint8_t flags, per-lane retirement instead
// of one while-condition.  Holding both halves here, the flag half
// parameterised over the node range and the adjacency view (the full CSR
// for the unsharded cores, a Partition slice for one shard), is what keeps
// the three front-ends from drifting — the determinism contract in
// src/sim/README.md is implemented here.
//
// The flag half operates on ranges of the *global* per-node arrays: a
// shard lane touches only ids in [lo, hi), which is what makes the sharded
// core's listener-partitioned delivery race-free without atomics.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/flag_buffer.hpp"
#include "sim/result.hpp"
#include "support/rng.hpp"

namespace beepmis::sim {

/// Width of the batched cores' bitplanes: one bit per concurrent trial.
inline constexpr unsigned kMaxBatchLanes = 64;

/// One bit per lane; bit l belongs to trial lane l.  Defined here (not
/// batch.hpp) so the plane half of the exchange engine below can operate
/// on lane planes without depending on the batched front-end.
using LaneMask = std::uint64_t;

/// Bit-sliced beep counts hold at most this many planes; the carry out of
/// the top one is dropped, so a count wraps exactly like the scalar
/// core's uint32 counter.
inline constexpr unsigned kMaxBeepPlanes = 32;

}  // namespace beepmis::sim

namespace beepmis::sim::detail {

// clear_flag_range / clear_flags live in flag_buffer.hpp (included above):
// one home for the sparse/dense clearing policy, shared by every core.

/// Presorted fault events and the round-0 active frontier for one node
/// range — the per-lane form of what BeepSimulator builds at graph binding.
struct FaultSchedule {
  /// Sleeping nodes (kActive but not yet awake), sorted by (round, node).
  std::vector<std::pair<std::uint32_t, graph::NodeId>> wakeups;
  /// Fail-stop events, sorted by (round, node); UINT32_MAX entries included
  /// for exact parity with a dense scan (they are simply never reached).
  std::vector<std::pair<std::uint32_t, graph::NodeId>> crashes;
  /// Nodes awake at round 0, ascending.
  std::vector<graph::NodeId> initial_active;
};

/// Builds the schedule for ids [lo, hi) from the per-node config vectors
/// (either may be empty = no such faults).  Restricting a global build to a
/// subrange and concatenating preserves the (round, node) order globally,
/// because ranges are contiguous and ascending.
inline FaultSchedule build_fault_schedule(const std::vector<std::uint32_t>& wake_round,
                                          const std::vector<std::uint32_t>& crash_round,
                                          graph::NodeId lo, graph::NodeId hi) {
  FaultSchedule sched;
  for (graph::NodeId v = lo; v < hi; ++v) {
    if (wake_round.empty() || wake_round[v] == 0) {
      sched.initial_active.push_back(v);
    } else {
      sched.wakeups.emplace_back(wake_round[v], v);
    }
  }
  std::sort(sched.wakeups.begin(), sched.wakeups.end());
  if (!crash_round.empty()) {
    for (graph::NodeId v = lo; v < hi; ++v) {
      sched.crashes.emplace_back(crash_round[v], v);
    }
    std::sort(sched.crashes.begin(), sched.crashes.end());
  }
  return sched;
}

struct FaultCursor {
  std::size_t next_wakeup = 0;
  std::size_t next_crash = 0;
};

struct FaultOutcome {
  bool active_crashed = false;  ///< some kActive node fail-stopped
  bool mis_crashed = false;     ///< some MIS member fail-stopped
};

/// Fires this round's wake then crash events over one range, mutating
/// status / active / in_active exactly like the scalar core: wakes before
/// crashes, equal-round events in ascending node id, a crashed sleeper
/// dropped at its wake round.  `on_wake` / `on_crash` are notification
/// hooks (trace recording in the scalar core; no-ops in a shard lane).
/// The caller handles the consequences of the returned flags (MIS-list
/// pruning, active compaction) so lane-local and global bookkeeping both
/// work.
template <typename OnWake, typename OnCrash>
FaultOutcome apply_fault_events(const FaultSchedule& sched, FaultCursor& cursor,
                                std::size_t round, std::vector<NodeStatus>& status,
                                std::vector<graph::NodeId>& active,
                                std::vector<std::uint8_t>& in_active, OnWake&& on_wake,
                                OnCrash&& on_crash) {
  FaultOutcome outcome;
  bool active_dirty = false;
  while (cursor.next_wakeup < sched.wakeups.size() &&
         sched.wakeups[cursor.next_wakeup].first <= round) {
    const graph::NodeId v = sched.wakeups[cursor.next_wakeup].second;
    ++cursor.next_wakeup;
    if (status[v] != NodeStatus::kActive) continue;  // crashed while asleep
    if (in_active[v]) continue;  // already woken early by a fault scenario
    active.push_back(v);
    in_active[v] = 1;
    active_dirty = true;
    on_wake(v);
  }
  if (active_dirty) std::sort(active.begin(), active.end());

  // Fail-stop hits any node that has not already crashed — including MIS
  // members (whose keep-alive then falls silent) and dominated nodes.
  while (cursor.next_crash < sched.crashes.size() &&
         sched.crashes[cursor.next_crash].first <= round) {
    const graph::NodeId v = sched.crashes[cursor.next_crash].second;
    ++cursor.next_crash;
    if (status[v] == NodeStatus::kCrashed) continue;
    outcome.active_crashed = outcome.active_crashed || status[v] == NodeStatus::kActive;
    outcome.mis_crashed = outcome.mis_crashed || status[v] == NodeStatus::kInMis;
    status[v] = NodeStatus::kCrashed;
    on_crash(v);
  }
  return outcome;
}

/// Round-boundary compaction: drops no-longer-active ids from the list and
/// their bits from the membership bitmap, preserving order.
inline void compact_active(std::vector<graph::NodeId>& active,
                           std::vector<std::uint8_t>& in_active,
                           const std::vector<NodeStatus>& status) {
  std::erase_if(active, [&](graph::NodeId v) {
    if (status[v] == NodeStatus::kActive) return false;
    in_active[v] = 0;
    return true;
  });
}

/// Round-boundary re-entry of reactivated nodes.  A node deactivated and
/// reactivated within the same round is still on the active list (it
/// survived compaction as kActive), so it is skipped here — inserting it
/// again would duplicate its emit/react visits.
inline void merge_reactivated(std::vector<graph::NodeId>& active,
                              std::vector<std::uint8_t>& in_active,
                              std::vector<graph::NodeId>& reactivated) {
  if (reactivated.empty()) return;
  for (const graph::NodeId v : reactivated) {
    if (in_active[v]) continue;
    active.push_back(v);
    in_active[v] = 1;
  }
  std::sort(active.begin(), active.end());
  reactivated.clear();
}

/// Frontier delivery: walks `beepers` (must be ascending; the caller
/// re-sorts if a protocol beeped out of order) and sets heard on each
/// neighbour returned by `neighbors_of` (full adjacency for the scalar
/// core, one shard's listener slice for a lane).  A beeper outside the
/// active list (a node reactivated earlier in this round) does not
/// deliver.  In lossy mode every *potential* delivery (listener not yet
/// hearing, in iteration order) consumes exactly one Bernoulli draw —
/// part of the determinism contract.  `on_hear(w)` marks the listener
/// (set flag + push the owning dirty list).
template <typename NeighborsFn, typename OnHear>
void deliver_from_beepers(const std::vector<graph::NodeId>& beepers,
                          const std::vector<std::uint8_t>& in_active,
                          NeighborsFn&& neighbors_of, const std::uint8_t* heard, bool lossy,
                          double keep, support::Xoshiro256StarStar* rng, OnHear&& on_hear) {
  for (const graph::NodeId v : beepers) {
    if (!in_active[v]) continue;
    for (const graph::NodeId w : neighbors_of(v)) {
      if (heard[w]) continue;  // already hearing a beep; extra losses moot
      if (!lossy || rng->bernoulli(keep)) on_hear(w);
    }
  }
}

/// Lossy keep-alive delivery: live MIS members beep forever; every
/// potential delivery consumes one Bernoulli draw, iterating members in
/// **join order** (the contract; no caching possible).
template <typename NeighborsFn, typename OnHear>
void deliver_keepalive_lossy(const std::vector<graph::NodeId>& mis_nodes,
                             NeighborsFn&& neighbors_of, const std::uint8_t* heard,
                             double keep, support::Xoshiro256StarStar& rng,
                             OnHear&& on_hear) {
  for (const graph::NodeId v : mis_nodes) {
    for (const graph::NodeId w : neighbors_of(v)) {
      if (heard[w]) continue;
      if (rng.bernoulli(keep)) on_hear(w);
    }
  }
}

/// Reliable-channel keep-alive cache: appends the not-yet-cached neighbours
/// of mis_nodes[from..) to the dedup set (membership bitmap + list).  With
/// from == 0 and a cleared set this is the scalar core's full rebuild;
/// incremental appends produce the same *set* (order within the cache list
/// is irrelevant — reliable delivery is idempotent).
template <typename NeighborsFn>
void extend_mis_hear(const std::vector<graph::NodeId>& mis_nodes, std::size_t from,
                     NeighborsFn&& neighbors_of, std::vector<std::uint8_t>& in_mis_hear,
                     std::vector<graph::NodeId>& mis_hear) {
  for (std::size_t i = from; i < mis_nodes.size(); ++i) {
    for (const graph::NodeId w : neighbors_of(mis_nodes[i])) {
      if (in_mis_hear[w]) continue;
      in_mis_hear[w] = 1;
      mis_hear.push_back(w);
    }
  }
}

// ---------------------------------------------------------------------------
// Plane engine: the 64-lane bitplane half of the exchange machinery,
// driving the batched front-end (BatchSimulator).  Everything below is the
// lane-plane analogue of the flag helpers above: per-node LaneMask planes
// instead of uint8_t flags, and a lane's active-list size reduced to one
// bit of the live planes' OR.
// ---------------------------------------------------------------------------

/// Fires this round's wake then crash events over the status planes — the
/// lane-plane analogue of apply_fault_events.  Wakes add
/// running-and-not-crashed lanes to the live plane (and the union active
/// list); crashes hit every not-yet-crashed running lane, dropping it from
/// the live / in-MIS / dominated planes.  Returns the lanes in which some
/// MIS member fail-stopped; the caller prunes its join-order bookkeeping.
inline LaneMask apply_plane_fault_events(
    const FaultSchedule& sched, FaultCursor& cursor, std::size_t round, LaneMask running,
    std::vector<LaneMask>& live, std::vector<LaneMask>& inmis,
    std::vector<LaneMask>& dominated, std::vector<LaneMask>& crashed,
    std::vector<graph::NodeId>& active, std::vector<std::uint8_t>& in_active) {
  bool active_dirty = false;
  while (cursor.next_wakeup < sched.wakeups.size() &&
         sched.wakeups[cursor.next_wakeup].first <= round) {
    const graph::NodeId v = sched.wakeups[cursor.next_wakeup].second;
    ++cursor.next_wakeup;
    // A sleeper can only be kActive or kCrashed; scalar drops the crashed.
    const LaneMask add = running & ~crashed[v];
    if (!add) continue;
    live[v] |= add;
    if (!in_active[v]) {
      in_active[v] = 1;
      active.push_back(v);
      active_dirty = true;
    }
  }
  if (active_dirty) std::sort(active.begin(), active.end());

  LaneMask mis_crashed = 0;
  while (cursor.next_crash < sched.crashes.size() &&
         sched.crashes[cursor.next_crash].first <= round) {
    const graph::NodeId v = sched.crashes[cursor.next_crash].second;
    ++cursor.next_crash;
    const LaneMask hit = running & ~crashed[v];
    if (!hit) continue;
    crashed[v] |= hit;
    live[v] &= ~hit;
    const LaneMask hit_mis = hit & inmis[v];
    if (hit_mis) {
      inmis[v] &= ~hit_mis;
      mis_crashed |= hit_mis;
    }
    dominated[v] &= ~hit;
  }
  return mis_crashed;
}

/// Round-boundary compaction of a union active frontier: drops ids whose
/// live plane went empty, clearing their membership bits.  Returns the OR
/// of the kept ids' live planes — the lanes with a non-empty active list,
/// since every live (node, lane) pair is on the frontier.
inline LaneMask compact_plane_active(std::vector<graph::NodeId>& active,
                                     std::vector<std::uint8_t>& in_active,
                                     const std::vector<LaneMask>& live) {
  LaneMask live_any = 0;
  std::erase_if(active, [&](graph::NodeId v) {
    live_any |= live[v];
    if (live[v] != 0) return false;
    in_active[v] = 0;
    return true;
  });
  return live_any;
}

/// Per-lane mirror of the scalar while-condition, evaluated at the top of
/// each round: a lane leaves the loop (freezing its planes and RNG) exactly
/// when its scalar run would.  `live_any` holds the lanes whose active list
/// is non-empty and `wakeups_pending` whether any wake event remains
/// unfired.
inline void retire_finished_lanes(std::size_t round, std::size_t run_until_round,
                                  std::size_t max_rounds, bool wakeups_pending,
                                  LaneMask live_any, std::size_t* lane_rounds,
                                  LaneMask& running, LaneMask& terminated) {
  LaneMask done = 0;
  if (!wakeups_pending && round >= run_until_round) done = running & ~live_any;
  if (round >= max_rounds) done = running;
  if (!wakeups_pending) terminated |= done & ~live_any;
  for (LaneMask b = done; b != 0; b &= b - 1) {
    lane_rounds[std::countr_zero(b)] = round;
  }
  running &= ~done;
}

/// Reliable plane delivery: one adjacency pass serves every lane via
/// OR-accumulation — heard[w] |= beeped[v] is one 8-byte OR where the
/// scalar core performs up to 64 separate byte stores.
template <typename NeighborsFn>
void deliver_planes(const std::vector<graph::NodeId>& beepers,
                    const std::vector<LaneMask>& beeped, NeighborsFn&& neighbors_of,
                    std::vector<LaneMask>& heard, std::vector<graph::NodeId>& heard_dirty) {
  for (const graph::NodeId v : beepers) {
    const LaneMask m = beeped[v];
    for (const graph::NodeId w : neighbors_of(v)) {
      const LaneMask old = heard[w];
      if (!old) heard_dirty.push_back(w);
      heard[w] = old | m;
    }
  }
}

/// Reliable-channel keep-alive cache over planes (lane analogue of
/// extend_mis_hear): rebuilds the (listener, lane-mask) list from the MIS
/// union.  `mask_of(v)` supplies v's member lanes (the live in-MIS plane).
template <typename MaskFn, typename NeighborsFn>
void rebuild_mis_hear_planes(const std::vector<graph::NodeId>& mis_union, MaskFn&& mask_of,
                             NeighborsFn&& neighbors_of,
                             std::vector<LaneMask>& mis_hear_mask,
                             std::vector<graph::NodeId>& mis_hear) {
  for (const graph::NodeId w : mis_hear) mis_hear_mask[w] = 0;
  mis_hear.clear();
  for (const graph::NodeId v : mis_union) {
    const LaneMask m = mask_of(v);
    if (!m) continue;
    for (const graph::NodeId w : neighbors_of(v)) {
      if (!mis_hear_mask[w]) mis_hear.push_back(w);
      mis_hear_mask[w] |= m;
    }
  }
}

/// Applies a cached keep-alive (listener, lane-mask) list to the heard
/// planes — one OR per cached listener serves all 64 lanes per exchange.
inline void apply_mis_hear_planes(const std::vector<graph::NodeId>& mis_hear,
                                  const std::vector<LaneMask>& mis_hear_mask,
                                  std::vector<LaneMask>& heard,
                                  std::vector<graph::NodeId>& heard_dirty) {
  for (const graph::NodeId w : mis_hear) {
    const LaneMask old = heard[w];
    if (!old) heard_dirty.push_back(w);
    heard[w] = old | mis_hear_mask[w];
  }
}

}  // namespace beepmis::sim::detail

namespace beepmis::sim {

/// A finished batched run, read in place: the final planes and per-lane
/// counters of the BatchSimulator::run_outcomes that produced it.
/// Non-owning: valid until that simulator's next run.  Bit l of every plane is lane l.  A (node, lane)
/// pair's final status is, in precedence order, crashed, in-MIS,
/// dominated, else active — the planes may overlap, the accessors below
/// resolve them.
struct LaneOutcomes {
  graph::NodeId n = 0;
  unsigned lanes = 0;
  std::span<const LaneMask> crashed;    ///< n entries
  std::span<const LaneMask> inmis;      ///< n entries
  std::span<const LaneMask> dominated;  ///< n entries
  /// Per-(node, lane) beep episodes, bit-sliced and plane-major: bit l of
  /// beep_planes[j * n + v] is bit j of lane l's count at v.  The run
  /// appended a plane only when a carry left the top one, so it holds
  /// beep_planes.size() / n planes (at most kMaxBeepPlanes; none when
  /// nothing beeped).  Read a node's counts through beeps_of.
  std::span<const LaneMask> beep_planes;
  LaneMask terminated = 0;
  std::span<const std::size_t> rounds;           ///< per lane
  std::span<const std::uint64_t> reactivations;  ///< per lane

  /// Bits of the lanes the run had.
  [[nodiscard]] LaneMask lane_mask() const noexcept {
    return lanes >= kMaxBatchLanes ? ~LaneMask{0} : (LaneMask{1} << lanes) - 1;
  }
  /// Lanes in which v ended in the MIS.
  [[nodiscard]] LaneMask mis_lanes(graph::NodeId v) const {
    return inmis[v] & ~crashed[v];
  }
  /// Lanes in which v ended dominated.
  [[nodiscard]] LaneMask dominated_lanes(graph::NodeId v) const {
    return dominated[v] & ~inmis[v] & ~crashed[v];
  }
  /// Writes lane l's beep episodes at v to out[l] for every l < lanes and
  /// returns the lanes whose count is non-zero.  Costs one step per set
  /// bit of v's planes.
  LaneMask beeps_of(graph::NodeId v, std::span<std::uint32_t, kMaxBatchLanes> out) const {
    std::fill_n(out.begin(), lanes, 0u);
    LaneMask nonzero = 0;
    unsigned j = 0;
    for (std::size_t i = v; i < beep_planes.size(); i += n, ++j) {
      nonzero |= beep_planes[i];
      for (LaneMask b = beep_planes[i]; b != 0; b &= b - 1) {
        out[static_cast<unsigned>(std::countr_zero(b))] |= std::uint32_t{1} << j;
      }
    }
    return nonzero;
  }
};

}  // namespace beepmis::sim

namespace beepmis::sim::detail {

/// Per-lane RunResults of a finished batch (BatchSimulator::run).
/// Node-major: each plane is read once sequentially.  Per-lane episode
/// totals are the per-node counts summed, so they are derived here instead
/// of a second increment per episode in BatchContext::beep.
inline std::vector<RunResult> extract_lane_results(const LaneOutcomes& o) {
  std::vector<RunResult> results(o.lanes);
  for (unsigned l = 0; l < o.lanes; ++l) {
    RunResult& r = results[l];
    r.terminated = (o.terminated >> l) & 1;
    r.rounds = o.rounds[l];
    r.status.resize(o.n);
    r.beep_counts.resize(o.n);
    r.reactivations = o.reactivations[l];
  }
  for (graph::NodeId v = 0; v < o.n; ++v) {
    const LaneMask cr = o.crashed[v];
    const LaneMask im = o.mis_lanes(v);
    const LaneMask dm = o.dominated_lanes(v);
    for (unsigned l = 0; l < o.lanes; ++l) {
      const LaneMask bit = LaneMask{1} << l;
      NodeStatus s = NodeStatus::kActive;
      if (cr & bit) {
        s = NodeStatus::kCrashed;
      } else if (im & bit) {
        s = NodeStatus::kInMis;
      } else if (dm & bit) {
        s = NodeStatus::kDominated;
      }
      results[l].status[v] = s;
    }
    std::array<std::uint32_t, kMaxBatchLanes> counts;
    for (LaneMask b = o.beeps_of(v, counts); b != 0; b &= b - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(b));
      results[l].beep_counts[v] = counts[l];
      results[l].total_beeps += counts[l];
    }
  }
  return results;
}

}  // namespace beepmis::sim::detail
