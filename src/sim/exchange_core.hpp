// Shared per-exchange machinery of the frontier-driven simulators — ONE
// exchange engine behind every front-end.
//
// The flag half: BeepSimulator (one lane covering [0, n)) and
// ShardedSimulator (K lanes, one per contiguous node range) execute the
// same exchange — clear flags through dirty lists, deliver beeps by
// walking an explicit beeper frontier, apply presorted fault events,
// compact the active list at round boundaries.  The plane half (bottom of
// this header) is the 64-lane bitplane analogue driving BatchSimulator and
// ShardedBatchSimulator: LaneMask planes instead of uint8_t flags, bulk
// Bernoulli planes instead of per-lane draws, per-lane retirement instead
// of one while-condition.  Holding both halves here, parameterised over
// the node range and the adjacency view (the full CSR for the unsharded
// cores, a Partition slice for one shard), is what keeps the four
// front-ends from drifting — the determinism contract in src/sim/README.md
// is implemented here.
//
// Everything operates on ranges of the *global* per-node arrays: a lane
// touches only ids in [lo, hi), which is what makes the sharded cores'
// listener-partitioned delivery race-free without atomics.
#pragma once

#include <algorithm>
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
// Plane engine: the 64-lane bitplane half of the exchange machinery, shared
// by the batched front-end (BatchSimulator, one context covering [0, n))
// and the sharded-batched front-end (ShardedBatchSimulator, one context per
// Partition slice).  Everything below is the lane-plane analogue of the
// flag helpers above: per-node LaneMask planes instead of uint8_t flags,
// per-lane counters instead of one list size.
// ---------------------------------------------------------------------------

/// Independent Bernoulli(2^-k) bits for the lanes in `lanes` (zero
/// elsewhere): the AND of k uniform planes, early-exiting once no requested
/// lane survives, so the expected cost is min(k, ~log2(popcount(lanes)) + 1)
/// draws.  k >= 1075 returns the empty plane without drawing, matching
/// bernoulli_pow2's underflow-to-never endpoint.
[[nodiscard]] inline LaneMask plane_bernoulli_pow2(support::Xoshiro256StarStar& rng,
                                                   unsigned k, LaneMask lanes) noexcept {
  if (k >= 1075) return 0;
  LaneMask plane = lanes;
  for (unsigned i = 0; i < k && plane != 0; ++i) plane &= rng();
  return plane;
}

/// Independent Bernoulli(p) bits for the lanes in `lanes`: arithmetic-
/// decoding against the binary expansion of p — each plane supplies one
/// uniform bit per undecided lane, and the first position where a lane's
/// bit differs from p's bit decides it (lane bit 0 under p bit 1 => its
/// uniform lies below p).  Exact for every double p; all 64 lanes resolve
/// in ~log2(lanes) + 2 expected planes.  Once p's remaining bits are all
/// zero, an undecided lane's uniform prefix equals p, so the uniform is
/// >= p: failure.
[[nodiscard]] inline LaneMask plane_bernoulli(support::Xoshiro256StarStar& rng, double p,
                                              LaneMask lanes) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return lanes;
  LaneMask undecided = lanes;
  LaneMask result = 0;
  while (undecided != 0) {
    p += p;
    const bool bit = p >= 1.0;
    if (bit) p -= 1.0;
    const LaneMask r = rng();
    if (bit) {
      result |= undecided & ~r;
      undecided &= r;
    } else {
      undecided &= ~r;
    }
    if (p == 0.0) break;
  }
  return result;
}

/// Fires this round's wake then crash events over one range of the status
/// planes — the lane-plane analogue of apply_fault_events.  Wakes add
/// running-and-not-crashed lanes to the live plane (and the union active
/// list); crashes hit every not-yet-crashed running lane, dropping it from
/// the live / in-MIS / dominated planes.  `active_count[l]` tracks the
/// caller's slice of lane l's active-list size.  Returns the lanes in
/// which some MIS member fail-stopped; the caller prunes whatever
/// join-order bookkeeping it maintains (per-lane lists in the batched
/// front-end, the shared union list at the sharded coordinator).
inline LaneMask apply_plane_fault_events(
    const FaultSchedule& sched, FaultCursor& cursor, std::size_t round, LaneMask running,
    std::vector<LaneMask>& live, std::vector<LaneMask>& inmis,
    std::vector<LaneMask>& dominated, std::vector<LaneMask>& crashed,
    std::vector<graph::NodeId>& active, std::vector<std::uint8_t>& in_active,
    std::uint32_t* active_count) {
  bool active_dirty = false;
  while (cursor.next_wakeup < sched.wakeups.size() &&
         sched.wakeups[cursor.next_wakeup].first <= round) {
    const graph::NodeId v = sched.wakeups[cursor.next_wakeup].second;
    ++cursor.next_wakeup;
    // A sleeper can only be kActive or kCrashed; scalar drops the crashed.
    const LaneMask add = running & ~crashed[v];
    if (!add) continue;
    live[v] |= add;
    for (LaneMask b = add; b != 0; b &= b - 1) {
      ++active_count[std::countr_zero(b)];
    }
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
    const LaneMask hit_live = hit & live[v];
    if (hit_live) {
      live[v] &= ~hit_live;
      for (LaneMask b = hit_live; b != 0; b &= b - 1) {
        --active_count[std::countr_zero(b)];
      }
    }
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
/// live plane went empty, clearing their membership bits.
inline void compact_plane_active(std::vector<graph::NodeId>& active,
                                 std::vector<std::uint8_t>& in_active,
                                 const std::vector<LaneMask>& live) {
  std::erase_if(active, [&](graph::NodeId v) {
    if (live[v] != 0) return false;
    in_active[v] = 0;
    return true;
  });
}

/// Per-lane mirror of the scalar while-condition, evaluated at the top of
/// each round: a lane leaves the loop (freezing its planes and RNG) exactly
/// when its scalar run would.  `active_count[l]` must be lane l's *global*
/// active-list size (the sharded coordinator sums its shards' slices first)
/// and `wakeups_pending` whether any wake event remains unfired anywhere.
inline void retire_finished_lanes(std::size_t round, std::size_t run_until_round,
                                  std::size_t max_rounds, bool wakeups_pending,
                                  const std::uint32_t* active_count,
                                  std::size_t* lane_rounds, LaneMask& running,
                                  LaneMask& terminated) {
  if (!wakeups_pending && round >= run_until_round) {
    LaneMask done = 0;
    for (LaneMask b = running; b != 0; b &= b - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(b));
      if (active_count[l] == 0) {
        done |= LaneMask{1} << l;
        lane_rounds[l] = round;
      }
    }
    terminated |= done;
    running &= ~done;
  }
  if (round >= max_rounds) {
    for (LaneMask b = running; b != 0; b &= b - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(b));
      lane_rounds[l] = round;
      if (active_count[l] == 0 && !wakeups_pending) terminated |= LaneMask{1} << l;
    }
    running = 0;
  }
}

/// Reliable plane delivery: one adjacency pass serves every lane via
/// OR-accumulation — heard[w] |= beeped[v] is one 8-byte OR where the
/// scalar core performs up to 64 separate byte stores.  `neighbors_of`
/// scopes the pass (full adjacency in the batched core, one shard's
/// listener slice in the sharded-batched core), which is what makes
/// listener-partitioned delivery race-free: a lane ORs only into its own
/// heard range.
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

/// Statistical-lanes lossy plane delivery: loss bits for *all* lanes of an
/// edge come from one bulk Bernoulli plane instead of popcount(avail)
/// serially dependent per-lane draws.  `mask_of(v)` supplies the beeping
/// lanes of source v (the beeped plane for frontier delivery; the in-MIS
/// plane masked to running lanes for keep-alive, where the union MIS in
/// ascending order has the same per-lane marginals as join order).
template <typename MaskFn, typename NeighborsFn>
void deliver_planes_lossy(const std::vector<graph::NodeId>& sources, MaskFn&& mask_of,
                          NeighborsFn&& neighbors_of, double keep,
                          support::Xoshiro256StarStar& rng, std::vector<LaneMask>& heard,
                          std::vector<graph::NodeId>& heard_dirty) {
  for (const graph::NodeId v : sources) {
    const LaneMask m = mask_of(v);
    if (!m) continue;
    for (const graph::NodeId w : neighbors_of(v)) {
      const LaneMask avail = m & ~heard[w];
      if (!avail) continue;
      const LaneMask got = plane_bernoulli(rng, keep, avail);
      if (got) {
        if (!heard[w]) heard_dirty.push_back(w);
        heard[w] |= got;
      }
    }
  }
}

/// Reliable-channel keep-alive cache over planes (lane analogue of
/// extend_mis_hear): rebuilds the (listener, lane-mask) list from the MIS
/// union.  `mask_of(v)` supplies v's member lanes — the live in-MIS plane
/// in the batched core, the coordinator's snapshot in the sharded-batched
/// core (so shards read a stable mask while others react).
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
/// counters of the front-end that produced it (BatchSimulator and
/// ShardedBatchSimulator::run_outcomes).  Non-owning: valid until that
/// simulator's next run.  Bit l of every plane is lane l.  A (node, lane)
/// pair's final status is, in precedence order, crashed, in-MIS,
/// dominated, else active — the planes may overlap, the accessors below
/// resolve them.
struct LaneOutcomes {
  graph::NodeId n = 0;
  unsigned lanes = 0;
  std::span<const LaneMask> crashed;    ///< n entries
  std::span<const LaneMask> inmis;      ///< n entries
  std::span<const LaneMask> dominated;  ///< n entries
  /// Per-(node, lane) beep episodes, node-major: beep_counts[v * lanes + l].
  std::span<const std::uint32_t> beep_counts;
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
};

}  // namespace beepmis::sim

namespace beepmis::sim::detail {

/// Per-lane RunResults of a finished batch (the batched front-ends' run()).
/// Node-major: the beep counts and the planes are each read once
/// sequentially (lane-major order would stride through the count array 64
/// times).  Per-lane episode totals are the per-node counts summed, so they
/// are derived here instead of a second scatter increment per episode in
/// BatchContext::beep.
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
    const std::uint32_t* counts = &o.beep_counts[static_cast<std::size_t>(v) * o.lanes];
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
      results[l].beep_counts[v] = counts[l];
      results[l].total_beeps += counts[l];
    }
  }
  return results;
}

}  // namespace beepmis::sim::detail
