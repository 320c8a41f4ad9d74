#include "sim/beep.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/batch.hpp"
#include "sim/exchange_core.hpp"
#include "sim/flag_buffer.hpp"
#include "support/phase_timer.hpp"

namespace beepmis::sim {

std::unique_ptr<BatchProtocol> BeepProtocol::make_batch_protocol() const { return nullptr; }

ShardSupport BeepProtocol::shard_support() const { return {}; }

void BeepContext::beep(graph::NodeId v) {
  if (phase_ != Phase::kEmit) {
    throw std::logic_error("BeepContext::beep called outside the emit phase");
  }
  if (v >= status_->size() || (*status_)[v] != NodeStatus::kActive) {
    throw std::logic_error("BeepContext::beep on an inactive or invalid node");
  }
  if (v < sink_->lo || v >= sink_->hi) {
    throw std::logic_error("BeepContext::beep on a node outside this shard's range");
  }
  if (!(*beeped_)[v]) {
    (*beeped_)[v] = 1;
    sink_->beepers->push_back(v);
    // A signal continuing from the previous exchange is one episode (see
    // beep() documentation in the header).
    if (!(*prev_beeped_)[v]) {
      ++(*sink_->beep_counts)[v];
      ++*sink_->total_beeps;
      if (sink_->trace != nullptr) {
        sink_->trace->record({static_cast<std::uint32_t>(round_),
                              static_cast<std::uint8_t>(exchange_), EventKind::kBeep, v});
      }
    }
  }
}

void BeepContext::join_mis(graph::NodeId v) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BeepContext::join_mis called outside the react phase");
  }
  if (v >= status_->size() || (*status_)[v] != NodeStatus::kActive) {
    throw std::logic_error("BeepContext::join_mis on an inactive or invalid node");
  }
  if (v < sink_->lo || v >= sink_->hi) {
    throw std::logic_error("BeepContext::join_mis on a node outside this shard's range");
  }
  (*status_)[v] = NodeStatus::kInMis;
  sink_->mis_joins->push_back(v);
  *sink_->mis_hear_valid = false;
  if (sink_->trace != nullptr) {
    sink_->trace->record({static_cast<std::uint32_t>(round_),
                          static_cast<std::uint8_t>(exchange_), EventKind::kJoinMis, v});
  }
}

void BeepContext::deactivate(graph::NodeId v) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BeepContext::deactivate called outside the react phase");
  }
  if (v >= status_->size() || (*status_)[v] != NodeStatus::kActive) {
    throw std::logic_error("BeepContext::deactivate on an inactive or invalid node");
  }
  if (v < sink_->lo || v >= sink_->hi) {
    throw std::logic_error("BeepContext::deactivate on a node outside this shard's range");
  }
  (*status_)[v] = NodeStatus::kDominated;
  if (sink_->trace != nullptr) {
    sink_->trace->record({static_cast<std::uint32_t>(round_),
                          static_cast<std::uint8_t>(exchange_), EventKind::kDeactivate, v});
  }
}

void BeepContext::reactivate(graph::NodeId v) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BeepContext::reactivate called outside the react phase");
  }
  if (v >= status_->size() || (*status_)[v] != NodeStatus::kDominated) {
    throw std::logic_error("BeepContext::reactivate on a non-dominated node");
  }
  if (v < sink_->lo || v >= sink_->hi) {
    throw std::logic_error("BeepContext::reactivate on a node outside this shard's range");
  }
  (*status_)[v] = NodeStatus::kActive;
  sink_->reactivated->push_back(v);
  ++sink_->reactivations;
  if (sink_->trace != nullptr) {
    sink_->trace->record({static_cast<std::uint32_t>(round_),
                          static_cast<std::uint8_t>(exchange_), EventKind::kReactivate, v});
  }
}

BeepSimulator::BeepSimulator(SimConfig config) : config_(std::move(config)) {
  if (config_.beep_loss_probability < 0.0 || config_.beep_loss_probability >= 1.0) {
    throw std::invalid_argument("SimConfig: beep_loss_probability must be in [0, 1)");
  }
}

BeepSimulator::BeepSimulator(const graph::Graph& g, SimConfig config)
    : BeepSimulator(std::move(config)) {
  bind_graph(g);
}

void BeepSimulator::bind_graph(const graph::Graph& g) {
  const graph::NodeId n = g.node_count();
  // The schedules below depend only on (config_, n), never on edge data,
  // and config_ is immutable after construction — so a rebind to any graph
  // of the same size (the shared-graph trial loop, or equally-sized
  // per-trial graphs) skips the O(n log n) rebuild.  graph_ may dangle
  // between trials, which is why the check uses the cached size.
  if (graph_ != nullptr && n == bound_node_count_) {
    graph_ = &g;
    return;
  }
  if (!config_.wake_round.empty() && config_.wake_round.size() != n) {
    throw std::invalid_argument("SimConfig: wake_round size must match the graph");
  }
  if (!config_.crash_round.empty() && config_.crash_round.size() != n) {
    throw std::invalid_argument("SimConfig: crash_round size must match the graph");
  }
  graph_ = &g;
  faults_ = detail::build_fault_schedule(config_.wake_round, config_.crash_round, 0, n);
  bound_node_count_ = n;
}

void BeepSimulator::deliver_beeps(support::Xoshiro256StarStar& rng) {
  detail::clear_flags(heard_, heard_dirty_);

  const bool lossy = config_.beep_loss_probability > 0.0;
  const double keep = 1.0 - config_.beep_loss_probability;
  // Protocols emit over the ascending active list, so the frontier is
  // normally already sorted; the check keeps the guarantee (and therefore
  // lossy-mode RNG draw order) for protocols that beep out of order.
  if (!std::is_sorted(beepers_.begin(), beepers_.end())) {
    std::sort(beepers_.begin(), beepers_.end());
  }
  const auto full_adjacency = [this](graph::NodeId v) { return graph_->neighbors(v); };
  const auto mark_heard = [this](graph::NodeId w) {
    heard_[w] = 1;
    heard_dirty_.push_back(w);
  };
  detail::deliver_from_beepers(beepers_, in_active_, full_adjacency, heard_.data(), lossy,
                               keep, &rng, mark_heard);
  if (config_.mis_keepalive) {
    // Members of the independent set beep forever (DISC'11 wake-up rule).
    // mis_nodes_ holds only live members in join order: a crashed member is
    // compacted out the round it fails, so no status check is needed here.
    if (lossy) {
      detail::deliver_keepalive_lossy(mis_nodes_, full_adjacency, heard_.data(), keep, rng,
                                      mark_heard);
    } else {
      // Reliable channel: keep-alive only ever sets heard on the fixed
      // neighbour set of the live MIS, so cache that set (deduplicated)
      // and re-derive it only when the MIS frontier changes.  A static
      // tail exchange then costs O(|N(MIS)|) instead of O(sum deg of MIS).
      if (!mis_hear_valid_) {
        detail::clear_flags(in_mis_hear_, mis_hear_);
        detail::extend_mis_hear(mis_nodes_, 0, full_adjacency, in_mis_hear_, mis_hear_);
        mis_hear_valid_ = true;
      }
      for (const graph::NodeId w : mis_hear_) {
        if (heard_[w]) continue;
        heard_[w] = 1;
        heard_dirty_.push_back(w);
      }
    }
  }
}

void BeepSimulator::compact_active() {
  detail::compact_active(active_, in_active_, status_);
}

detail::FaultOutcome BeepSimulator::apply_wakeups_and_crashes() {
  const auto trace_wake = [this](graph::NodeId v) {
    if (trace_enabled_) {
      trace_.record({static_cast<std::uint32_t>(round_), 0, EventKind::kWake, v});
    }
  };
  const auto trace_crash = [this](graph::NodeId v) {
    if (trace_enabled_) {
      trace_.record({static_cast<std::uint32_t>(round_), 0, EventKind::kCrash, v});
    }
  };
  const detail::FaultOutcome outcome = detail::apply_fault_events(
      faults_, fault_cursor_, round_, status_, active_, in_active_, trace_wake, trace_crash);
  if (outcome.mis_crashed) {
    std::erase_if(mis_nodes_,
                  [this](graph::NodeId v) { return status_[v] != NodeStatus::kInMis; });
    mis_hear_valid_ = false;
  }
  if (outcome.active_crashed) compact_active();
  return outcome;
}

bool BeepSimulator::apply_scenario_events() {
  scenario_events_.clear();
  const ScenarioView view{*graph_, round_, status_, active_, mis_nodes_};
  config_.scenario->on_round(view, scenario_events_);
  if (scenario_events_.empty()) return false;

  const graph::NodeId n = graph_->node_count();
  // Application order is a driver guarantee, not an emission obligation:
  // wakes, then crashes, then revives, ascending node id within each kind.
  std::sort(scenario_events_.begin(), scenario_events_.end(),
            [](const ScenarioEvent& a, const ScenarioEvent& b) {
              return a.kind != b.kind ? a.kind < b.kind : a.node < b.node;
            });
  bool active_dirty = false;
  bool active_crashed = false;
  bool mis_crashed = false;
  bool revived = false;
  for (const ScenarioEvent& e : scenario_events_) {
    const graph::NodeId v = e.node;
    if (v >= n) {
      throw std::invalid_argument("fault scenario emitted an out-of-range node id");
    }
    switch (e.kind) {
      case ScenarioEventKind::kWake:
        // Early wake of a still-sleeping node; awake or decided nodes are
        // a defined no-op (the legacy wake queue's in_active guard later
        // skips the node it no longer needs to wake).
        if (status_[v] != NodeStatus::kActive || in_active_[v]) break;
        active_.push_back(v);
        in_active_[v] = 1;
        active_dirty = true;
        if (trace_enabled_) {
          trace_.record({static_cast<std::uint32_t>(round_), 0, EventKind::kWake, v});
        }
        break;
      case ScenarioEventKind::kCrash:
        if (status_[v] == NodeStatus::kCrashed) break;  // crash-while-crashed: no-op
        active_crashed = active_crashed || status_[v] == NodeStatus::kActive;
        mis_crashed = mis_crashed || status_[v] == NodeStatus::kInMis;
        status_[v] = NodeStatus::kCrashed;
        if (trace_enabled_) {
          trace_.record({static_cast<std::uint32_t>(round_), 0, EventKind::kCrash, v});
        }
        break;
      case ScenarioEventKind::kRevive:
        if (status_[v] != NodeStatus::kCrashed) break;  // revive-while-alive: no-op
        status_[v] = NodeStatus::kActive;
        active_.push_back(v);
        in_active_[v] = 1;
        active_dirty = true;
        revived = true;
        if (trace_enabled_) {
          trace_.record({static_cast<std::uint32_t>(round_), 0, EventKind::kRevive, v});
        }
        break;
    }
  }
  if (mis_crashed) {
    std::erase_if(mis_nodes_,
                  [this](graph::NodeId v) { return status_[v] != NodeStatus::kInMis; });
    mis_hear_valid_ = false;
  }
  if (active_crashed) compact_active();
  if (active_dirty) std::sort(active_.begin(), active_.end());
  return mis_crashed || revived;
}

void BeepSimulator::update_recovery(bool state_may_have_changed) {
  if (state_may_have_changed) recovery_dirty_ = true;
  if (open_disruptions_.empty()) return;
  if (!active_.empty() || fault_cursor_.next_wakeup < faults_.wakeups.size()) return;
  if (recovery_dirty_) {
    recovery_valid_ = quiescent_state_valid();
    recovery_dirty_ = false;
  }
  if (!recovery_valid_) return;
  // Quiescent and valid at the end of round round_: every open disruption
  // recovered within (round_ + 1 - start) rounds.
  const auto close = static_cast<std::uint32_t>(round_ + 1);
  for (const std::uint32_t start : open_disruptions_) {
    recovery_rounds_.push_back(close - start);
  }
  open_disruptions_.clear();
}

bool BeepSimulator::quiescent_state_valid() const {
  const graph::Graph& g = *graph_;
  const graph::NodeId n = g.node_count();
  for (graph::NodeId v = 0; v < n; ++v) {
    switch (status_[v]) {
      case NodeStatus::kActive:
        return false;  // undecided (or still asleep) node
      case NodeStatus::kCrashed:
        break;  // exempt, like mis::verify_mis_run
      case NodeStatus::kInMis:
        for (const graph::NodeId w : g.neighbors(v)) {
          if (status_[w] == NodeStatus::kInMis) return false;  // independence
        }
        break;
      case NodeStatus::kDominated: {
        bool covered = false;
        for (const graph::NodeId w : g.neighbors(v)) {
          if (status_[w] == NodeStatus::kInMis) {
            covered = true;
            break;
          }
        }
        if (!covered) return false;  // lost its cover
        break;
      }
    }
  }
  return true;
}

RunResult BeepSimulator::run(const graph::Graph& g, BeepProtocol& protocol,
                             support::Xoshiro256StarStar rng) {
  // Always rebind: the caller may have rebuilt a different graph at the
  // same address (the trial runner's per-trial local does exactly that).
  bind_graph(g);
  return run(protocol, std::move(rng));
}

RunResult BeepSimulator::run(BeepProtocol& protocol, support::Xoshiro256StarStar rng) {
  if (graph_ == nullptr) {
    throw std::logic_error("BeepSimulator::run: no graph bound");
  }
  const graph::NodeId n = graph_->node_count();
  status_.assign(n, NodeStatus::kActive);
  beep_counts_.assign(n, 0);
  if (beeped_.size() != n) {
    beeped_.assign(n, 0);
    prev_beeped_.assign(n, 0);
    heard_.assign(n, 0);
    in_active_.assign(n, 0);
    in_mis_hear_.assign(n, 0);
    beepers_.clear();
    prev_beepers_.clear();
    heard_dirty_.clear();
    mis_hear_.clear();
  } else {
    // Same-size rerun: restore the all-zero invariant in O(touched) by
    // undoing exactly what the previous run left dirty.
    detail::clear_flags(beeped_, beepers_);
    detail::clear_flags(prev_beeped_, prev_beepers_);
    detail::clear_flags(heard_, heard_dirty_);
    detail::clear_flags(in_mis_hear_, mis_hear_);
    for (const graph::NodeId v : active_) in_active_[v] = 0;
  }
  mis_nodes_.clear();
  mis_hear_valid_ = false;
  reactivated_.clear();
  total_beeps_ = 0;
  round_ = 0;
  trace_.clear();
  trace_enabled_ = config_.record_trace;

  active_ = faults_.initial_active;
  for (const graph::NodeId v : active_) in_active_[v] = 1;
  fault_cursor_ = {};
  open_disruptions_.clear();
  recovery_rounds_.clear();
  recovery_dirty_ = true;
  recovery_valid_ = false;
  if (config_.scenario != nullptr) config_.scenario->reset(*graph_);

  protocol.reset(*graph_, rng);
  // Read after reset: protocols may size their exchange count to the graph.
  const unsigned exchanges = protocol.exchanges_per_round();
  if (exchanges == 0) throw std::logic_error("protocol declares zero exchanges per round");

  detail::MutationSink sink;
  sink.beepers = &beepers_;
  sink.beep_counts = &beep_counts_;
  sink.total_beeps = &total_beeps_;
  sink.mis_joins = &mis_nodes_;
  sink.mis_hear_valid = &mis_hear_valid_;
  sink.reactivated = &reactivated_;
  sink.trace = trace_enabled_ ? &trace_ : nullptr;
  sink.lo = 0;
  sink.hi = n;

  BeepContext ctx;
  ctx.graph_ = graph_;
  ctx.active_ = &active_;
  ctx.status_ = &status_;
  ctx.beeped_ = &beeped_;
  ctx.prev_beeped_ = &prev_beeped_;
  ctx.heard_ = &heard_;
  ctx.rng_ = &rng;
  ctx.sink_ = &sink;

  BEEPMIS_STM_DECLARE(faults, "beep/faults");
  BEEPMIS_STM_DECLARE(emit, "beep/emit");
  BEEPMIS_STM_DECLARE(deliver, "beep/deliver");
  BEEPMIS_STM_DECLARE(react, "beep/react");

  while ((!active_.empty() || fault_cursor_.next_wakeup < faults_.wakeups.size() ||
          round_ < config_.run_until_round) &&
         round_ < config_.max_rounds) {
    if (config_.deadline_ns != nullptr &&
        steady_now_ns() > config_.deadline_ns->load(std::memory_order_relaxed)) {
      throw RunCancelled("BeepSimulator::run: deadline expired at round " +
                         std::to_string(round_));
    }
    BEEPMIS_STM_START(faults);
    const detail::FaultOutcome outcome = apply_wakeups_and_crashes();
    bool disruptive = outcome.mis_crashed;
    if (config_.scenario != nullptr) {
      disruptive = apply_scenario_events() || disruptive;
    }
    BEEPMIS_STM_STOP(faults);
    if (config_.track_recovery && disruptive) {
      open_disruptions_.push_back(static_cast<std::uint32_t>(round_));
    }
    const bool had_active = !active_.empty();

    for (exchange_ = 0; exchange_ < exchanges; ++exchange_) {
      if (exchange_ == 0) {
        // Round start: both flag buffers must read all-zero.
        detail::clear_flags(prev_beeped_, prev_beepers_);
      } else {
        // The previous exchange's beeps become prev_beeped_ by swapping
        // buffers instead of copying n bytes.
        beeped_.swap(prev_beeped_);
        beepers_.swap(prev_beepers_);
      }
      detail::clear_flags(beeped_, beepers_);
      ctx.round_ = round_;
      ctx.exchange_ = exchange_;

      ctx.phase_ = BeepContext::Phase::kEmit;
      BEEPMIS_STM_START(emit);
      protocol.emit(ctx);
      BEEPMIS_STM_STOP(emit);

      BEEPMIS_STM_START(deliver);
      deliver_beeps(rng);
      BEEPMIS_STM_STOP(deliver);

      ctx.phase_ = BeepContext::Phase::kReact;
      BEEPMIS_STM_START(react);
      protocol.react(ctx);
      BEEPMIS_STM_STOP(react);
    }
    compact_active();
    detail::merge_reactivated(active_, in_active_, reactivated_);
    if (observer_) {
      ctx.phase_ = BeepContext::Phase::kObserve;
      observer_(ctx);
    }
    if (config_.track_recovery) update_recovery(had_active || disruptive);
    ++round_;
  }

  RunResult result;
  result.terminated =
      active_.empty() && fault_cursor_.next_wakeup >= faults_.wakeups.size();
  result.rounds = round_;
  result.status = std::move(status_);
  result.beep_counts = std::move(beep_counts_);
  result.total_beeps = total_beeps_;
  result.recovery_rounds = std::move(recovery_rounds_);
  result.unrecovered_disruptions = open_disruptions_.size();
  result.reactivations = sink.reactivations;
  return result;
}

}  // namespace beepmis::sim
