#include "mis/local_feedback.hpp"

#include <algorithm>
#include <stdexcept>
#include <typeinfo>

#include "mis/local_feedback_batch.hpp"

namespace beepmis::mis {

std::unique_ptr<sim::BatchProtocol> LocalFeedbackMis::make_batch_protocol() const {
  // Exact-type guard: subclasses inherit this override but add behaviour
  // (reactivation hooks, different reset draws) the batched kernel does not
  // reproduce, so only the base protocol itself is batch-capable.
  if (typeid(*this) != typeid(LocalFeedbackMis)) return nullptr;
  return std::make_unique<BatchLocalFeedbackMis>(config_);
}

sim::ShardSupport LocalFeedbackMis::shard_support() const {
  // Exact-type guard, like make_batch_protocol: a subclass (self-healing)
  // adds cross-node behaviour and extra bookkeeping the sharded contract
  // does not cover.
  if (typeid(*this) != typeid(LocalFeedbackMis)) return {};
  return skeleton_shard_support();
}

void LocalFeedbackConfig::validate() const {
  if (!(initial_p_low > 0.0) || initial_p_low > initial_p_high || initial_p_high > 1.0) {
    throw std::invalid_argument(
        "LocalFeedbackConfig: need 0 < initial_p_low <= initial_p_high <= 1");
  }
  if (!(factor_low > 1.0) || factor_low > factor_high) {
    throw std::invalid_argument(
        "LocalFeedbackConfig: need 1 < factor_low <= factor_high");
  }
  if (!(max_p > 0.0) || max_p > 1.0) {
    throw std::invalid_argument("LocalFeedbackConfig: need 0 < max_p <= 1");
  }
}

LocalFeedbackMis::LocalFeedbackMis(LocalFeedbackConfig config) : config_(config) {
  config_.validate();
}

void LocalFeedbackMis::on_reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) {
  const graph::NodeId n = g.node_count();
  p_.assign(n, config_.initial_p_low);
  factor_.assign(n, config_.factor_low);
  const bool hetero_p = config_.initial_p_high > config_.initial_p_low;
  const bool hetero_factor = config_.factor_high > config_.factor_low;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (hetero_p) {
      p_[v] = config_.initial_p_low +
              rng.uniform01() * (config_.initial_p_high - config_.initial_p_low);
    }
    if (hetero_factor) {
      factor_[v] = config_.factor_low +
                   rng.uniform01() * (config_.factor_high - config_.factor_low);
    }
    p_[v] = std::min(p_[v], config_.max_p);
  }
}

double LocalFeedbackMis::beep_probability(graph::NodeId v, std::size_t /*round*/) const {
  return p_[v];
}

void LocalFeedbackMis::set_probability(graph::NodeId v, double p) {
  p_.at(v) = std::min(p, config_.max_p);
}

void LocalFeedbackMis::on_feedback(graph::NodeId v, bool heard_beep, std::size_t /*round*/) {
  if (heard_beep) {
    p_[v] /= factor_[v];  // lateral inhibition: a signalling neighbour suppresses v
  } else {
    p_[v] = std::min(config_.max_p, p_[v] * factor_[v]);
  }
}

}  // namespace beepmis::mis
