#include "sim/sharded_batch.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/flag_buffer.hpp"
#include "support/parallel.hpp"
#include "support/phase_timer.hpp"

namespace beepmis::sim {

// The exchange machinery here is entirely the shared plane engine
// (sim/exchange_core.hpp detail::) — the same helpers the batched
// front-end calls, pointed at one shard's slice instead of [0, n).  This
// file only adds the SPMD choreography: the barrier schedule, the
// coordinator's merge/snapshot steps, and the per-(shard, lane) stream
// layout.

ShardedBatchSimulator::ShardedBatchSimulator(unsigned shards, SimConfig config,
                                             BatchRngMode rng_mode)
    : requested_shards_(std::max(1u, shards)),
      config_(std::move(config)),
      rng_mode_(rng_mode) {
  if (shards > kMaxShards) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: shard count " + std::to_string(shards) + " exceeds " +
        std::to_string(kMaxShards) +
        " (one worker thread and an n-scaled slice index per shard; is a "
        "negative value wrapping through unsigned?)");
  }
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: kScalarOrder's global draw order cannot be "
        "reproduced across shards and lanes at once; use BatchSimulator for "
        "bit-identical lanes or kStatisticalLanes here");
  }
  if (config_.beep_loss_probability < 0.0 || config_.beep_loss_probability >= 1.0) {
    throw std::invalid_argument("SimConfig: beep_loss_probability must be in [0, 1)");
  }
  if (config_.record_trace) {
    throw std::invalid_argument(
        "ShardedBatchSimulator does not support record_trace; use the scalar "
        "BeepSimulator");
  }
  if (config_.scenario != nullptr) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: fault scenarios run on the scalar BeepSimulator "
        "(kStaticSchedule scenarios materialise into crash_round vectors instead)");
  }
  if (config_.track_recovery) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: recovery tracking is scalar-only (use BeepSimulator)");
  }
  lossy_ = config_.beep_loss_probability > 0.0;
  keep_ = 1.0 - config_.beep_loss_probability;
}

ShardedBatchSimulator::ShardedBatchSimulator(const graph::Graph& g, unsigned shards,
                                             SimConfig config, BatchRngMode rng_mode)
    : ShardedBatchSimulator(shards, std::move(config), rng_mode) {
  bind_graph(g);
}

const graph::Partition& ShardedBatchSimulator::partition() const {
  if (graph_ == nullptr) {
    throw std::logic_error("ShardedBatchSimulator::partition: no graph bound");
  }
  return partition_;
}

void ShardedBatchSimulator::bind_graph(const graph::Graph& g) {
  const graph::NodeId n = g.node_count();
  if (!config_.wake_round.empty() && config_.wake_round.size() != n) {
    throw std::invalid_argument("SimConfig: wake_round size must match the graph");
  }
  if (!config_.crash_round.empty() && config_.crash_round.size() != n) {
    throw std::invalid_argument("SimConfig: crash_round size must match the graph");
  }
  graph_ = &g;
  partition_ = graph::Partition::build(g, requested_shards_);
  if (config_.shard_local_adjacency) partition_.materialize_local_adjacency();
  const unsigned k = partition_.shard_count();
  shards_.resize(k);
  for (unsigned s = 0; s < k; ++s) {
    Shard& shard = shards_[s];
    shard.lo = partition_.begin(s);
    shard.hi = partition_.end(s);
    shard.faults = detail::build_fault_schedule(config_.wake_round, config_.crash_round,
                                                shard.lo, shard.hi);
  }
}

LaneOutcomes ShardedBatchSimulator::run_outcomes(const graph::Graph& g,
                                                BatchProtocol& protocol,
                                                support::Xoshiro256StarStar base,
                                                unsigned lanes) {
  bind_graph(g);
  return run_outcomes(protocol, std::move(base), lanes);
}

LaneOutcomes ShardedBatchSimulator::run_outcomes(BatchProtocol& protocol,
                                                support::Xoshiro256StarStar base,
                                                unsigned lanes) {
  if (graph_ == nullptr) {
    throw std::logic_error("ShardedBatchSimulator::run: no graph bound");
  }
  if (lanes == 0 || lanes > kMaxBatchLanes) {
    throw std::invalid_argument("ShardedBatchSimulator::run: need 1..64 lanes");
  }
  const graph::NodeId n = graph_->node_count();
  const unsigned k = partition_.shard_count();
  lane_count_ = lanes;
  const LaneMask all_lanes =
      lanes == kMaxBatchLanes ? ~LaneMask{0} : (LaneMask{1} << lanes) - 1;

  live_.assign(n, 0);
  inmis_.assign(n, 0);
  dominated_.assign(n, 0);
  crashed_.assign(n, 0);
  beeped_.assign(n, 0);
  prev_beeped_.assign(n, 0);
  heard_.assign(n, 0);
  in_active_.assign(n, 0);
  in_mis_union_.assign(n, 0);
  mis_union_.clear();
  mis_mask_.assign(n, 0);
  mis_hear_mask_.assign(n, 0);
  beep_counts_.assign(static_cast<std::size_t>(n) * lanes, 0);
  lane_rounds_.assign(lanes, 0);
  global_active_count_.assign(lanes, 0);
  reactivation_totals_.assign(lanes, 0);
  running_ = all_lanes;
  terminated_ = 0;
  round_ = 0;
  first_pass_ = true;
  mis_dirty_ = false;
  wakeups_pending_ = false;
  failed_.store(false, std::memory_order_relaxed);

  // Stream layout: walking the shards in order, shard s adopts the cursor
  // as its bulk stream, then takes one jump per lane stream, then one
  // more jump separates it from shard s+1.  So shard s's bulk is the base
  // advanced by s·(lanes+1) jumps and every (shard, lane) window is a
  // disjoint 2^128-output span.  At K = 1 this is exactly
  // BatchSimulator's kStatisticalLanes seeding (bulk = base, lane l =
  // base + l+1 jumps), which is what makes the one-shard run a
  // bit-identity oracle against the batched core.
  support::Xoshiro256StarStar cursor = std::move(base);
  for (Shard& shard : shards_) {
    shard.bulk = cursor;
    support::Xoshiro256StarStar stream = cursor;
    shard.rngs.clear();
    shard.rngs.reserve(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      stream.jump();
      shard.rngs.push_back(stream);
    }
    cursor = stream;
    cursor.jump();
  }

  for (Shard& shard : shards_) {
    shard.cursor = {};
    shard.mis_crashed = 0;
    shard.active = shard.faults.initial_active;
    for (const graph::NodeId v : shard.active) {
      in_active_[v] = 1;
      live_[v] = all_lanes;
    }
    shard.beepers.clear();
    shard.boundary_beepers.clear();
    shard.prev_beepers.clear();
    shard.heard_dirty.clear();
    shard.joined.clear();
    shard.reactivated.clear();
    shard.mis_hear.clear();
    shard.mis_hear_stale = true;
    shard.active_count.assign(lanes, static_cast<std::uint32_t>(shard.active.size()));
    shard.reactivation_counts.assign(lanes, 0);
    shard.error = nullptr;
  }

  // Serial reset, like every front-end: batched kernels keep per-node
  // state only, so one reset initialises all shards' slices.  The reset
  // draws consume shard 0's lane streams — at K = 1 that is exactly the
  // batched core's reset, and for K > 1 the other shards' streams stay
  // untouched (their windows are disjoint either way).
  protocol.reset(*graph_, std::span<support::Xoshiro256StarStar>(shards_[0].rngs));
  exchanges_ = protocol.exchanges_per_round();
  if (exchanges_ == 0) throw std::logic_error("protocol declares zero exchanges per round");
  protocol_ = &protocol;

  sync_.emplace(static_cast<std::ptrdiff_t>(k));
  std::atomic<unsigned> next_shard{0};
  support::run_workers(
      k, k, [&] { shard_worker(next_shard.fetch_add(1)); },
      [&](unsigned missing) {
        // Partial spawn: stand in for the missing shards once
        // (arrive_and_drop also removes them from every later phase) and
        // mark the run failed — shard 0 exists whenever any shard does
        // and aborts the round loop at the next boundary.
        failed_.store(true);
        for (unsigned m = 0; m < missing; ++m) sync_->arrive_and_drop();
      });
  sync_.reset();

  for (const Shard& shard : shards_) {
    for (unsigned l = 0; l < lanes; ++l) {
      reactivation_totals_[l] += shard.reactivation_counts[l];
    }
  }
  return LaneOutcomes{n, lanes, crashed_, inmis_, dominated_, beep_counts_,
                      terminated_, lane_rounds_, reactivation_totals_};
}

void ShardedBatchSimulator::coordinate_round_boundary() {
  if (failed_.load()) {
    // Some shard's work threw; its exception is parked in the shard and
    // rethrown once every shard reaches the common exit, so end the run
    // here.  (At most one partial round of work is discarded.)
    running_ = 0;
    return;
  }
  if (!first_pass_) {
    // Merge per-shard MIS joins into the global union.  Joins happen only
    // in the final exchange (kernel contract), so merging at the round
    // boundary exposes exactly the set the batched core's union holds at
    // its next round top.  Dedup here (not in join_mis) because a node
    // can join in different lanes on different shards' rounds... it
    // cannot — a node lives on one shard — but it can re-join in a later
    // round after a keep-alive-less healing cycle removed it; the bitmap
    // keeps the union a set either way.
    for (Shard& shard : shards_) {
      for (const graph::NodeId v : shard.joined) {
        if (!in_mis_union_[v]) {
          in_mis_union_[v] = 1;
          mis_union_.push_back(v);
        }
      }
      if (!shard.joined.empty()) mis_dirty_ = true;
      shard.joined.clear();
    }
    ++round_;
  }
  first_pass_ = false;

  if (config_.deadline_ns != nullptr &&
      steady_now_ns() > config_.deadline_ns->load(std::memory_order_relaxed)) {
    throw RunCancelled("ShardedBatchSimulator::run: deadline expired at round " +
                       std::to_string(round_));
  }

  // Lane retirement needs lane-global active counts; sum the shard
  // slices.  This is the per-lane analogue of the sharded core's
  // active_total_.
  std::fill(global_active_count_.begin(), global_active_count_.end(), 0u);
  wakeups_pending_ = false;
  for (const Shard& shard : shards_) {
    wakeups_pending_ =
        wakeups_pending_ || shard.cursor.next_wakeup < shard.faults.wakeups.size();
    for (unsigned l = 0; l < lane_count_; ++l) {
      global_active_count_[l] += shard.active_count[l];
    }
  }
  detail::retire_finished_lanes(round_, config_.run_until_round, config_.max_rounds,
                                wakeups_pending_, global_active_count_.data(),
                                lane_rounds_.data(), running_, terminated_);
}

void ShardedBatchSimulator::coordinate_exchange_top(unsigned exchange) {
  if (exchange != 0) {
    // The previous exchange's beeps become prev_beeped_ by a global
    // buffer swap; shards swap their dirty lists in the emit block.
    beeped_.swap(prev_beeped_);
    return;
  }
  LaneMask mis_crashed = 0;
  for (Shard& shard : shards_) {
    mis_crashed |= shard.mis_crashed;
    shard.mis_crashed = 0;
  }
  if (mis_crashed) {
    // A crashed member falls out of every keep-alive frontier the round
    // it fails, exactly like the batched core's union compaction.
    std::erase_if(mis_union_, [this](graph::NodeId v) {
      if (inmis_[v] != 0) return false;
      in_mis_union_[v] = 0;
      return true;
    });
    mis_dirty_ = true;
  }
  if (mis_dirty_) {
    if (config_.mis_keepalive) {
      // Re-snapshot the union's in-MIS planes post-fault: shards read
      // mis_mask_ (never remote inmis_) during keep-alive delivery, so
      // a shard already reacting — joining, mutating its own inmis_
      // rows — cannot race a shard still delivering.
      for (const graph::NodeId v : mis_union_) mis_mask_[v] = inmis_[v];
      for (Shard& shard : shards_) shard.mis_hear_stale = true;
    }
    mis_dirty_ = false;
  }
}

void ShardedBatchSimulator::deliver_shard(Shard& shard, unsigned s) {
  detail::clear_flag_range(heard_.data(), shard.lo, shard.hi, shard.heard_dirty);
  const auto slice = [this, s](graph::NodeId v) { return partition_.neighbors_in(v, s); };
  if (!lossy_) {
    // Local beeps first, then each remote shard's boundary beeps, shards
    // ascending; OR-delivery is idempotent, so the order is free.
    detail::deliver_planes(shard.beepers, beeped_, slice, heard_, shard.heard_dirty);
    for (unsigned r = 0; r < shards_.size(); ++r) {
      if (r == s) continue;
      detail::deliver_planes(shards_[r].boundary_beepers, beeped_, slice, heard_,
                             shard.heard_dirty);
    }
    if (config_.mis_keepalive) {
      if (shard.mis_hear_stale) {
        detail::rebuild_mis_hear_planes(
            mis_union_, [this](graph::NodeId v) { return mis_mask_[v]; }, slice,
            mis_hear_mask_, shard.mis_hear);
        shard.mis_hear_stale = false;
      }
      detail::apply_mis_hear_planes(shard.mis_hear, mis_hear_mask_, heard_,
                                    shard.heard_dirty);
    }
    return;
  }
  // Statistical lossy delivery: every potential edge delivery into this
  // shard's heard rows draws one bulk Bernoulli plane from *this shard's*
  // bulk stream — the listener-side partitioning that kills the sharded
  // core's serial lossy coordinator bottleneck.  Per-listener marginals
  // do not depend on the order the beeping neighbours are tried, so the
  // distribution matches the batched core's; only the sample differs,
  // which is the mode's contract.
  const auto beeped_mask = [this](graph::NodeId v) { return beeped_[v]; };
  detail::deliver_planes_lossy(shard.beepers, beeped_mask, slice, keep_, shard.bulk,
                               heard_, shard.heard_dirty);
  for (unsigned r = 0; r < shards_.size(); ++r) {
    if (r == s) continue;
    detail::deliver_planes_lossy(shards_[r].boundary_beepers, beeped_mask, slice, keep_,
                                 shard.bulk, heard_, shard.heard_dirty);
  }
  if (config_.mis_keepalive) {
    const LaneMask running = running_;
    detail::deliver_planes_lossy(
        mis_union_, [this, running](graph::NodeId v) { return mis_mask_[v] & running; },
        slice, keep_, shard.bulk, heard_, shard.heard_dirty);
  }
}

void ShardedBatchSimulator::shard_worker(unsigned s) {
  BEEPMIS_STM_DECLARE(faults, "sharded_batch/faults");
  BEEPMIS_STM_DECLARE(emit, "sharded_batch/emit");
  BEEPMIS_STM_DECLARE(deliver, "sharded_batch/deliver");
  BEEPMIS_STM_DECLARE(react, "sharded_batch/react");
  Shard& shard = shards_[s];
  // No shard work may unwind past a barrier (the others would deadlock):
  // every inter-barrier block runs through this wrapper, parking the
  // first exception; the shard keeps arriving at every barrier as a
  // no-op participant and the coordinator ends the run at the next round
  // boundary.  Rethrown at the common exit for run_workers' capture.
  const auto guarded = [&](auto&& call) {
    if (shard.error != nullptr) return;
    try {
      call();
    } catch (...) {
      shard.error = std::current_exception();
      failed_.store(true);
    }
  };

  BatchContext ctx;
  ctx.graph_ = graph_;
  ctx.active_ = &shard.active;
  ctx.live_ = &live_;
  ctx.inmis_ = &inmis_;
  ctx.dominated_ = &dominated_;
  ctx.beeped_ = &beeped_;
  ctx.prev_beeped_ = &prev_beeped_;
  ctx.heard_ = &heard_;
  ctx.beepers_ = &shard.beepers;
  ctx.beep_counts_ = beep_counts_.data();
  ctx.active_count_ = shard.active_count.data();
  ctx.mis_lists_ = nullptr;  // statistical-only: nothing consumes join order
  ctx.mis_joins_ = &shard.joined;
  ctx.in_mis_union_ = nullptr;  // dedup happens at the coordinator merge
  ctx.mis_hear_valid_ = &shard.mis_flag_scratch;
  ctx.reactivated_ = &shard.reactivated;
  ctx.reactivation_counts_ = shard.reactivation_counts.data();
  ctx.running_ = &running_;
  ctx.bulk_rng_ = &shard.bulk;
  ctx.rngs_ = &shard.rngs;
  ctx.rng_mode_ = rng_mode_;
  ctx.lo_ = shard.lo;
  ctx.hi_ = shard.hi;
  ctx.lane_count_ = lane_count_;

  // ---- round loop (SPMD; shard 0 doubles as the coordinator) ----------
  for (;;) {
    sync_->arrive_and_wait();  // all shards idle; previous round complete
    if (s == 0) {
      // Not routed through `guarded`: the decision must run every round
      // even on an errored coordinator shard, or running_ would stay
      // nonzero forever.  Its own failure parks like any other and stops
      // the run directly.
      try {
        coordinate_round_boundary();
      } catch (...) {
        if (shard.error == nullptr) shard.error = std::current_exception();
        failed_.store(true);
        running_ = 0;
      }
    }
    sync_->arrive_and_wait();  // decision visible
    if (running_ == 0) break;

    guarded([&] {
      BEEPMIS_STM_START(faults);
      shard.mis_crashed = detail::apply_plane_fault_events(
          shard.faults, shard.cursor, round_, running_, live_, inmis_, dominated_,
          crashed_, shard.active, in_active_, shard.active_count.data());
      BEEPMIS_STM_STOP(faults);
    });
    sync_->arrive_and_wait();  // fault outcomes visible to the coordinator

    for (unsigned e = 0; e < exchanges_; ++e) {
      if (s == 0) coordinate_exchange_top(e);
      sync_->arrive_and_wait();  // swap + MIS bookkeeping visible

      guarded([&] {
        BEEPMIS_STM_START(emit);
        if (e == 0) {
          detail::clear_flag_range(prev_beeped_.data(), shard.lo, shard.hi,
                                   shard.prev_beepers);
        } else {
          shard.beepers.swap(shard.prev_beepers);
        }
        detail::clear_flag_range(beeped_.data(), shard.lo, shard.hi, shard.beepers);
        ctx.round_ = round_;
        ctx.exchange_ = e;
        ctx.phase_ = BatchContext::Phase::kEmit;
        protocol_->emit(ctx);
        // Kernels emit over the ascending frontier slice, so the list is
        // normally already sorted; keep the guarantee for out-of-order
        // beeps (the delivery passes rely on it).
        if (!std::is_sorted(shard.beepers.begin(), shard.beepers.end())) {
          std::sort(shard.beepers.begin(), shard.beepers.end());
        }
        if (shards_.size() > 1) {
          // Publish only the beeps that can cross a shard line: the
          // cross-shard merge then scans O(boundary beepers) remote
          // entries instead of every remote frontier entry.
          shard.boundary_beepers.clear();
          for (const graph::NodeId v : shard.beepers) {
            if (partition_.is_boundary(v)) shard.boundary_beepers.push_back(v);
          }
        }
        BEEPMIS_STM_STOP(emit);
      });
      sync_->arrive_and_wait();  // all beeper frontiers final

      // Deliver then react with no barrier between: delivery writes only
      // this shard's heard rows and reads only exchange-frozen planes
      // (beeped_, the mis_mask_ snapshot), while react mutates only this
      // shard's status planes — so a shard may react while a neighbour
      // is still delivering.
      guarded([&] {
        BEEPMIS_STM_START(deliver);
        deliver_shard(shard, s);
        BEEPMIS_STM_STOP(deliver);
        BEEPMIS_STM_START(react);
        ctx.phase_ = BatchContext::Phase::kReact;
        protocol_->react(ctx);
        BEEPMIS_STM_STOP(react);
      });
      sync_->arrive_and_wait();  // reacts done; flags may be recycled
    }

    guarded([&] {
      detail::compact_plane_active(shard.active, in_active_, live_);
      if (!shard.reactivated.empty()) {
        // Round-boundary rule shared with the batched core: a reactivated
        // node re-enters the frontier unless still on it.
        for (const graph::NodeId v : shard.reactivated) {
          if (in_active_[v]) continue;
          shard.active.push_back(v);
          in_active_[v] = 1;
        }
        std::sort(shard.active.begin(), shard.active.end());
        shard.reactivated.clear();
      }
    });
  }
  // Common exit: every shard has left the loop, no barrier is pending.
  if (shard.error != nullptr) std::rethrow_exception(shard.error);
}

}  // namespace beepmis::sim
