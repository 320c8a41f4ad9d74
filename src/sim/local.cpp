#include "sim/local.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/flag_buffer.hpp"

namespace beepmis::sim {

void LocalContext::publish(graph::NodeId v, std::uint64_t value, unsigned bits) {
  if (phase_ != Phase::kEmit) {
    throw std::logic_error("LocalContext::publish called outside the emit phase");
  }
  if (v >= status_->size() || (*status_)[v] != NodeStatus::kActive) {
    throw std::logic_error("LocalContext::publish on an inactive or invalid node");
  }
  (*values_)[v] = value;
  if (!(*published_)[v]) {
    (*published_)[v] = 1;
    simulator_->publishers_.push_back(v);
  }
  simulator_->message_bits_ +=
      static_cast<std::uint64_t>(graph_->degree(v)) * bits;
}

void LocalContext::join_mis(graph::NodeId v) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("LocalContext::join_mis called outside the react phase");
  }
  if (v >= status_->size() || (*status_)[v] != NodeStatus::kActive) {
    throw std::logic_error("LocalContext::join_mis on an inactive or invalid node");
  }
  (*status_)[v] = NodeStatus::kInMis;
}

void LocalContext::deactivate(graph::NodeId v) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("LocalContext::deactivate called outside the react phase");
  }
  if (v >= status_->size() || (*status_)[v] != NodeStatus::kActive) {
    throw std::logic_error("LocalContext::deactivate on an inactive or invalid node");
  }
  (*status_)[v] = NodeStatus::kDominated;
}

LocalSimulator::LocalSimulator(LocalSimConfig config) : config_(config) {}

LocalSimulator::LocalSimulator(const graph::Graph& g, LocalSimConfig config)
    : graph_(&g), config_(config) {}

RunResult LocalSimulator::run(const graph::Graph& g, LocalProtocol& protocol,
                              support::Xoshiro256StarStar rng) {
  graph_ = &g;
  return run(protocol, std::move(rng));
}

RunResult LocalSimulator::run(LocalProtocol& protocol, support::Xoshiro256StarStar rng) {
  if (graph_ == nullptr) {
    throw std::logic_error("LocalSimulator::run: no graph bound");
  }
  const graph::NodeId n = graph_->node_count();
  status_.assign(n, NodeStatus::kActive);
  // values_ entries are only ever read behind a set published_ flag, so
  // stale contents are unreachable and need no clearing.
  values_.resize(n);
  if (published_.size() != n) {
    published_.assign(n, 0);
    publishers_.clear();
  } else {
    detail::clear_flags(published_, publishers_);
  }
  message_bits_ = 0;

  active_.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) active_[v] = v;

  protocol.reset(*graph_, rng);
  // Read after reset: protocols may size their exchange count to the graph.
  const unsigned exchanges = protocol.exchanges_per_round();
  if (exchanges == 0) throw std::logic_error("protocol declares zero exchanges per round");

  LocalContext ctx;
  ctx.graph_ = graph_;
  ctx.active_ = &active_;
  ctx.status_ = &status_;
  ctx.values_ = &values_;
  ctx.published_ = &published_;
  ctx.rng_ = &rng;
  ctx.simulator_ = this;

  std::size_t round = 0;
  while (!active_.empty() && round < config_.max_rounds) {
    if (config_.deadline_ns != nullptr &&
        steady_now_ns() > config_.deadline_ns->load(std::memory_order_relaxed)) {
      throw RunCancelled("LocalSimulator::run: deadline expired at round " +
                         std::to_string(round));
    }
    for (unsigned e = 0; e < exchanges; ++e) {
      detail::clear_flags(published_, publishers_);
      ctx.round_ = round;
      ctx.exchange_ = e;

      ctx.phase_ = LocalContext::Phase::kEmit;
      protocol.emit(ctx);

      ctx.phase_ = LocalContext::Phase::kReact;
      protocol.react(ctx);
    }
    std::erase_if(active_,
                  [this](graph::NodeId v) { return status_[v] != NodeStatus::kActive; });
    ++round;
  }

  RunResult result;
  result.terminated = active_.empty();
  result.rounds = round;
  result.status = std::move(status_);
  result.beep_counts.assign(n, 0);
  result.message_bits = message_bits_;
  return result;
}

}  // namespace beepmis::sim
