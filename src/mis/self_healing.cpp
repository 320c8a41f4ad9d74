#include "mis/self_healing.hpp"

#include <stdexcept>

#include "mis/self_healing_batch.hpp"

namespace beepmis::mis {

std::unique_ptr<sim::BatchProtocol> SelfHealingLocalFeedbackMis::make_batch_protocol() const {
  return std::make_unique<BatchSelfHealingMis>(config_);
}

sim::ShardSupport SelfHealingLocalFeedbackMis::shard_support() const {
  // Same draw contract as the base local-feedback protocol (one intent
  // draw per active entry, none in the announcement exchange); the healing
  // pass draws nothing and touches only per-node state inside the
  // context's shard range.  The class is final, so no typeid guard needed.
  return skeleton_shard_support();
}

SelfHealingLocalFeedbackMis::SelfHealingLocalFeedbackMis(SelfHealingConfig config)
    : LocalFeedbackMis(config.base), config_(config) {
  if (config_.silence_threshold == 0) {
    throw std::invalid_argument("SelfHealing: silence_threshold must be >= 1");
  }
}

void SelfHealingLocalFeedbackMis::on_reset(const graph::Graph& g,
                                           support::Xoshiro256StarStar& rng) {
  LocalFeedbackMis::on_reset(g, rng);
  silence_.assign(g.node_count(), 0);
}

void SelfHealingLocalFeedbackMis::on_round_complete(sim::BeepContext& ctx) {
  // heard() reflects the announcement exchange, which includes the MIS
  // keep-alive beeps — a dominated node with a live dominator always
  // hears, so its silence counter stays at zero.
  // Scan only this context's node range: the whole graph on the scalar
  // path, one shard's slice on the sharded path (each shard heals its own
  // nodes; a global scan would visit every node K times).
  const graph::NodeId end = ctx.node_end();
  for (graph::NodeId v = ctx.node_begin(); v < end; ++v) {
    if (ctx.status(v) != sim::NodeStatus::kDominated) continue;
    if (ctx.heard(v)) {
      silence_[v] = 0;
    } else if (++silence_[v] >= config_.silence_threshold) {
      silence_[v] = 0;
      set_probability(v, config_.base.initial_p_low);
      ctx.reactivate(v);
    }
  }
}

}  // namespace beepmis::mis
