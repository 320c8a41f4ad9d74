#include "sim/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/parallel.hpp"
#include "support/phase_timer.hpp"

namespace beepmis::sim {

ShardedSimulator::ShardedSimulator(unsigned shards, SimConfig config)
    : requested_shards_(std::max(1u, shards)), config_(std::move(config)) {
  if (shards > kMaxShards) {
    throw std::invalid_argument(
        "ShardedSimulator: shard count " + std::to_string(shards) + " exceeds " +
        std::to_string(kMaxShards) +
        " (one worker thread and an n-scaled slice index per shard; is a "
        "negative value wrapping through unsigned?)");
  }
  if (config_.beep_loss_probability < 0.0 || config_.beep_loss_probability >= 1.0) {
    throw std::invalid_argument("SimConfig: beep_loss_probability must be in [0, 1)");
  }
  if (config_.record_trace) {
    throw std::invalid_argument(
        "ShardedSimulator: event traces are scalar-only (use BeepSimulator)");
  }
  if (config_.scenario != nullptr) {
    throw std::invalid_argument(
        "ShardedSimulator: fault scenarios run on the scalar BeepSimulator "
        "(kStaticSchedule scenarios materialise into crash_round vectors instead)");
  }
  if (config_.track_recovery) {
    throw std::invalid_argument(
        "ShardedSimulator: recovery tracking is scalar-only (use BeepSimulator)");
  }
  lossy_ = config_.beep_loss_probability > 0.0;
  keep_ = 1.0 - config_.beep_loss_probability;
}

ShardedSimulator::ShardedSimulator(const graph::Graph& g, unsigned shards, SimConfig config)
    : ShardedSimulator(shards, std::move(config)) {
  bind_graph(g);
}

const graph::Partition& ShardedSimulator::partition() const {
  if (graph_ == nullptr) {
    throw std::logic_error("ShardedSimulator::partition: no graph bound");
  }
  return partition_;
}

void ShardedSimulator::bind_graph(const graph::Graph& g) {
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
  lanes_.resize(k);
  for (unsigned s = 0; s < k; ++s) {
    Lane& lane = lanes_[s];
    lane.lo = partition_.begin(s);
    lane.hi = partition_.end(s);
    lane.faults = detail::build_fault_schedule(config_.wake_round, config_.crash_round,
                                               lane.lo, lane.hi);
  }
  // Shard ranges (and therefore the ownership of stale dirty-list entries)
  // may have moved, so the incremental flag-clearing invariant no longer
  // holds; force the next run to reinitialise the flag arrays from
  // scratch.  Unlike the scalar core there is no same-size fast path —
  // the partition depends on edge data, and the caller may have rebuilt a
  // different graph at the same address.
  beeped_.clear();
}

RunResult ShardedSimulator::run(const graph::Graph& g, BeepProtocol& protocol,
                                support::Xoshiro256StarStar rng) {
  bind_graph(g);
  return run(protocol, std::move(rng));
}

RunResult ShardedSimulator::run(BeepProtocol& protocol, support::Xoshiro256StarStar rng) {
  if (graph_ == nullptr) {
    throw std::logic_error("ShardedSimulator::run: no graph bound");
  }
  support_ = protocol.shard_support();
  if (!support_.supported) {
    throw std::invalid_argument(
        "ShardedSimulator::run: protocol does not declare sharded-execution "
        "support (BeepProtocol::shard_support); use BeepSimulator");
  }

  const graph::NodeId n = graph_->node_count();
  const unsigned k = partition_.shard_count();
  status_.assign(n, NodeStatus::kActive);
  beep_counts_.assign(n, 0);
  if (beeped_.size() != n) {
    beeped_.assign(n, 0);
    prev_beeped_.assign(n, 0);
    heard_.assign(n, 0);
    in_active_.assign(n, 0);
    in_mis_hear_.assign(n, 0);
    for (Lane& lane : lanes_) {
      lane.beepers.clear();
      lane.prev_beepers.clear();
      lane.heard_dirty.clear();
      lane.mis_hear.clear();
      lane.active.clear();
    }
  }
  mis_nodes_.clear();
  mis_generation_ = 1;
  protocol_ = &protocol;
  master_ = std::move(rng);
  pending_sync_lane_ = -1;

  protocol.reset(*graph_, master_);
  // Read after reset: protocols may size their exchange count to the graph.
  exchanges_ = protocol.exchanges_per_round();
  if (exchanges_ == 0) throw std::logic_error("protocol declares zero exchanges per round");
  if (support_.emit_draws_per_entry.size() != exchanges_) {
    throw std::logic_error(
        "ShardedSimulator::run: shard_support().emit_draws_per_entry must have "
        "one entry per exchange");
  }

  round_ = 0;
  running_ = true;
  first_pass_ = true;
  failed_.store(false, std::memory_order_relaxed);
  active_total_ = 0;
  wakeups_pending_ = false;

  sync_.emplace(static_cast<std::ptrdiff_t>(k));
  std::atomic<unsigned> next_lane{0};
  support::run_workers(
      k, k, [&] { shard_worker(next_lane.fetch_add(1)); },
      [&](unsigned missing) {
        // Partial spawn: the started lanes are (or will be) blocked at the
        // round-top barrier waiting for lanes that will never exist.
        // Stand in for the missing lanes once (arrive_and_drop also
        // removes them from every later phase) and mark the run failed —
        // lane ids are claimed in order, so lane 0 exists whenever any
        // lane does and aborts the round loop at the next boundary.
        failed_.store(true);
        for (unsigned m = 0; m < missing; ++m) sync_->arrive_and_drop();
      });
  sync_.reset();

  RunResult result;
  result.terminated = active_total_ == 0 && !wakeups_pending_;
  result.rounds = round_;
  result.status = std::move(status_);
  result.beep_counts = std::move(beep_counts_);
  result.total_beeps = 0;
  for (const Lane& lane : lanes_) {
    result.total_beeps += lane.total_beeps;
    result.reactivations += lane.sink.reactivations;
  }
  return result;
}

void ShardedSimulator::sync_master() {
  if (pending_sync_lane_ >= 0) {
    // The last drawing shard's post-emit stream *is* the master cursor
    // (the shard consumed exactly its declared window), so adopting it
    // saves re-discarding the window.
    master_ = lanes_[static_cast<std::size_t>(pending_sync_lane_)].rng;
    pending_sync_lane_ = -1;
  }
}

void ShardedSimulator::carve_streams(unsigned exchange) {
  sync_master();
  const std::uint64_t draws = support_.emit_draws_per_entry[exchange];
  int last = -1;
  for (int s = static_cast<int>(lanes_.size()) - 1; s >= 0; --s) {
    if (draws * lanes_[static_cast<std::size_t>(s)].active.size() > 0) {
      last = s;
      break;
    }
  }
  for (int s = 0; s < static_cast<int>(lanes_.size()); ++s) {
    Lane& lane = lanes_[static_cast<std::size_t>(s)];
    lane.rng = master_;
    if (s != last) master_.discard(draws * lane.active.size());
  }
  pending_sync_lane_ = last;
}

void ShardedSimulator::coordinate_round_boundary() {
  if (failed_.load()) {
    // Some lane's protocol call threw; its exception is parked in the lane
    // and rethrown once every lane reaches the common exit, so end the run
    // here.  (At most one partial round of work is discarded.)
    running_ = false;
    return;
  }
  if (!first_pass_) {
    // Merge per-shard MIS joins into the global join-order list.  Shards
    // are ascending contiguous ranges and each shard's joins are recorded
    // in ascending id order, so concatenation reproduces the scalar join
    // order (joins happen only in the final exchange, per the contract).
    for (Lane& lane : lanes_) {
      mis_nodes_.insert(mis_nodes_.end(), lane.joined.begin(), lane.joined.end());
      lane.joined.clear();
    }
    ++round_;
  }
  first_pass_ = false;

  if (config_.deadline_ns != nullptr &&
      steady_now_ns() > config_.deadline_ns->load(std::memory_order_relaxed)) {
    throw RunCancelled("ShardedSimulator::run: deadline expired at round " +
                       std::to_string(round_));
  }

  active_total_ = 0;
  wakeups_pending_ = false;
  for (const Lane& lane : lanes_) {
    active_total_ += lane.active.size();
    wakeups_pending_ =
        wakeups_pending_ || lane.cursor.next_wakeup < lane.faults.wakeups.size();
  }
  running_ = (active_total_ > 0 || wakeups_pending_ || round_ < config_.run_until_round) &&
             round_ < config_.max_rounds;
}

void ShardedSimulator::deliver_reliable(Lane& lane, unsigned s) {
  detail::clear_flag_range(heard_.data(), lane.lo, lane.hi, lane.heard_dirty);
  const auto slice = [this, s](graph::NodeId v) { return partition_.neighbors_in(v, s); };
  const auto mark_heard = [this, &lane](graph::NodeId w) {
    heard_[w] = 1;
    lane.heard_dirty.push_back(w);
  };

  // Local beeps first, then each remote shard's boundary beeps, shards
  // ascending.  Reliable delivery is idempotent, so this order is free to
  // differ from the scalar core's single global pass — the resulting heard
  // set is identical.
  detail::deliver_from_beepers(lane.beepers, in_active_, slice, heard_.data(),
                               /*lossy=*/false, 1.0, nullptr, mark_heard);
  for (unsigned r = 0; r < lanes_.size(); ++r) {
    if (r == s) continue;
    // Pre-filtered at emit time: only beeps that can cross a shard line.
    for (const graph::NodeId v : lanes_[r].boundary_beepers) {
      if (!in_active_[v]) continue;
      for (const graph::NodeId w : partition_.neighbors_in(v, s)) {
        if (heard_[w]) continue;
        heard_[w] = 1;
        lane.heard_dirty.push_back(w);
      }
    }
  }

  if (config_.mis_keepalive) {
    // Lazily sync this shard's slice of N(MIS) with the coordinator's
    // global list (read-only during exchanges).  A MIS crash bumps the
    // generation and forces a full rebuild; joins only append.
    if (lane.mis_generation != mis_generation_) {
      for (const graph::NodeId w : lane.mis_hear) in_mis_hear_[w] = 0;
      lane.mis_hear.clear();
      detail::extend_mis_hear(mis_nodes_, 0, slice, in_mis_hear_, lane.mis_hear);
      lane.mis_generation = mis_generation_;
      lane.mis_cache_count = mis_nodes_.size();
    } else if (lane.mis_cache_count < mis_nodes_.size()) {
      detail::extend_mis_hear(mis_nodes_, lane.mis_cache_count, slice, in_mis_hear_,
                              lane.mis_hear);
      lane.mis_cache_count = mis_nodes_.size();
    }
    for (const graph::NodeId w : lane.mis_hear) {
      if (heard_[w]) continue;
      heard_[w] = 1;
      lane.heard_dirty.push_back(w);
    }
  }
}

void ShardedSimulator::deliver_lossy_serial() {
  // The scalar draw order interleaves shards (global ascending beeper
  // order, global already-heard short-circuit, keep-alive in global join
  // order), so lossy delivery runs serially on the coordinator.  Shard
  // dirty lists still receive the heard positions so the parallel
  // clearing discipline keeps working.
  sync_master();
  for (Lane& lane : lanes_) {
    detail::clear_flag_range(heard_.data(), lane.lo, lane.hi, lane.heard_dirty);
  }
  const auto full_adjacency = [this](graph::NodeId v) { return graph_->neighbors(v); };
  const auto mark_heard = [this](graph::NodeId w) {
    heard_[w] = 1;
    lanes_[partition_.shard_of(w)].heard_dirty.push_back(w);
  };
  for (const Lane& src : lanes_) {
    detail::deliver_from_beepers(src.beepers, in_active_, full_adjacency, heard_.data(),
                                 /*lossy=*/true, keep_, &master_, mark_heard);
  }
  if (config_.mis_keepalive) {
    detail::deliver_keepalive_lossy(mis_nodes_, full_adjacency, heard_.data(), keep_,
                                    master_, mark_heard);
  }
}

void ShardedSimulator::shard_worker(unsigned s) {
  Lane& lane = lanes_[s];
  // No lane work may unwind past a barrier: the other lanes would
  // deadlock waiting for this one.  Every inter-barrier work block —
  // protocol calls, delivery, fault application, even allocation-prone
  // bookkeeping — runs through this wrapper: the first exception is
  // parked in the lane, the lane keeps arriving at every barrier as a
  // no-op participant, the coordinator ends the run at the next round
  // boundary, and the exception is rethrown at the common exit below —
  // where support::run_workers captures it for the caller.
  const auto guarded = [&](auto&& call) {
    if (lane.error != nullptr) return;  // already aborting; skip the work
    try {
      call();
    } catch (...) {
      lane.error = std::current_exception();
      failed_.store(true);
    }
  };
  BEEPMIS_STM_DECLARE(faults, "sharded/faults");
  BEEPMIS_STM_DECLARE(emit, "sharded/emit");
  BEEPMIS_STM_DECLARE(deliver, "sharded/deliver");
  BEEPMIS_STM_DECLARE(react, "sharded/react");
  {
    lane.error = nullptr;
    BeepContext ctx;
    guarded([&] {
      // ---- per-run lane init ------------------------------------------
      detail::clear_flag_range(beeped_.data(), lane.lo, lane.hi, lane.beepers);
      detail::clear_flag_range(prev_beeped_.data(), lane.lo, lane.hi, lane.prev_beepers);
      detail::clear_flag_range(heard_.data(), lane.lo, lane.hi, lane.heard_dirty);
      for (const graph::NodeId w : lane.mis_hear) in_mis_hear_[w] = 0;
      lane.mis_hear.clear();
      for (const graph::NodeId v : lane.active) in_active_[v] = 0;
      lane.active = lane.faults.initial_active;
      for (const graph::NodeId v : lane.active) in_active_[v] = 1;
      lane.cursor = {};
      lane.joined.clear();
      lane.reactivated.clear();
      lane.mis_generation = 0;
      lane.mis_cache_count = 0;
      lane.total_beeps = 0;

      lane.sink = {};
      lane.sink.beepers = &lane.beepers;
      lane.sink.beep_counts = &beep_counts_;
      lane.sink.total_beeps = &lane.total_beeps;
      lane.sink.mis_joins = &lane.joined;
      lane.sink.mis_hear_valid = &lane.mis_flag_scratch;
      lane.sink.reactivated = &lane.reactivated;
      lane.sink.trace = nullptr;
      lane.sink.lo = lane.lo;
      lane.sink.hi = lane.hi;

      ctx.graph_ = graph_;
      ctx.active_ = &lane.active;
      ctx.status_ = &status_;
      ctx.beeped_ = &beeped_;
      ctx.prev_beeped_ = &prev_beeped_;
      ctx.heard_ = &heard_;
      ctx.rng_ = &lane.rng;
      ctx.sink_ = &lane.sink;
    });

    // ---- round loop (SPMD; shard 0 doubles as the coordinator) --------
    const auto noop = [](graph::NodeId) {};
    for (;;) {
      sync_->arrive_and_wait();  // all lanes idle; previous round complete
      if (s == 0) {
        // Not routed through `guarded`: the decision must run every round
        // even on an errored coordinator lane, or running_ would stay
        // true forever.  Its own failure parks like any other and stops
        // the run directly.
        try {
          coordinate_round_boundary();
        } catch (...) {
          if (lane.error == nullptr) lane.error = std::current_exception();
          failed_.store(true);
          running_ = false;
        }
      }
      sync_->arrive_and_wait();  // decision visible
      if (!running_) break;

      guarded([&] {
        BEEPMIS_STM_START(faults);
        lane.fault_outcome = detail::apply_fault_events(
            lane.faults, lane.cursor, round_, status_, lane.active, in_active_, noop,
            noop);
        if (lane.fault_outcome.active_crashed) {
          detail::compact_active(lane.active, in_active_, status_);
        }
        BEEPMIS_STM_STOP(faults);
      });
      sync_->arrive_and_wait();  // fault outcomes visible to the coordinator

      for (unsigned e = 0; e < exchanges_; ++e) {
        if (s == 0) {
          if (e == 0) {
            bool mis_crashed = false;
            for (const Lane& l : lanes_) {
              mis_crashed = mis_crashed || l.fault_outcome.mis_crashed;
            }
            if (mis_crashed) {
              std::erase_if(mis_nodes_, [this](graph::NodeId v) {
                return status_[v] != NodeStatus::kInMis;
              });
              ++mis_generation_;
            }
          } else {
            // The previous exchange's beeps become prev_beeped_ by a
            // global buffer swap; lanes swap their dirty lists below.
            beeped_.swap(prev_beeped_);
          }
          if (support_.emit_draws_per_entry[e] > 0) carve_streams(e);
        }
        sync_->arrive_and_wait();  // swap + streams visible

        guarded([&] {
          BEEPMIS_STM_START(emit);
          if (e == 0) {
            detail::clear_flag_range(prev_beeped_.data(), lane.lo, lane.hi,
                                     lane.prev_beepers);
          } else {
            lane.beepers.swap(lane.prev_beepers);
          }
          detail::clear_flag_range(beeped_.data(), lane.lo, lane.hi, lane.beepers);
          ctx.round_ = round_;
          ctx.exchange_ = e;
          ctx.phase_ = BeepContext::Phase::kEmit;
          protocol_->emit(ctx);
          // Protocols emit over the ascending active slice, so the lane
          // frontier is normally already sorted; the check keeps the
          // guarantee for protocols that beep out of order (the delivery
          // passes and the lossy global order rely on it).
          if (!std::is_sorted(lane.beepers.begin(), lane.beepers.end())) {
            std::sort(lane.beepers.begin(), lane.beepers.end());
          }
          if (lanes_.size() > 1 && !lossy_) {
            // Publish only the beeps that can cross a shard line: the
            // cross-shard merge then scans O(boundary beepers) remote
            // entries instead of every remote frontier entry.  Lossy
            // delivery runs serially over full frontiers and skips this.
            lane.boundary_beepers.clear();
            for (const graph::NodeId v : lane.beepers) {
              if (partition_.is_boundary(v)) lane.boundary_beepers.push_back(v);
            }
          }
          BEEPMIS_STM_STOP(emit);
        });
        sync_->arrive_and_wait();  // all beeper frontiers final

        if (lossy_) {
          if (s == 0) {
            guarded([&] {
              BEEPMIS_STM_START(deliver);
              deliver_lossy_serial();
              BEEPMIS_STM_STOP(deliver);
            });
          }
          sync_->arrive_and_wait();  // heard flags final
        } else {
          guarded([&] {
            BEEPMIS_STM_START(deliver);
            deliver_reliable(lane, s);
            BEEPMIS_STM_STOP(deliver);
          });
        }

        guarded([&] {
          ctx.phase_ = BeepContext::Phase::kReact;
          BEEPMIS_STM_START(react);
          protocol_->react(ctx);
          BEEPMIS_STM_STOP(react);
        });
        sync_->arrive_and_wait();  // reacts done; flags may be recycled
      }

      guarded([&] {
        detail::compact_active(lane.active, in_active_, status_);
        detail::merge_reactivated(lane.active, in_active_, lane.reactivated);
      });
    }
  }
  // Common exit: every lane has left the loop, no barrier is pending.
  if (lane.error != nullptr) std::rethrow_exception(lane.error);
}

}  // namespace beepmis::sim
