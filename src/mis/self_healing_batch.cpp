#include "mis/self_healing_batch.hpp"

#include <bit>
#include <stdexcept>

namespace beepmis::mis {

using sim::LaneMask;

BatchSelfHealingMis::BatchSelfHealingMis(SelfHealingConfig config)
    : BatchLocalFeedbackMis(config.base),
      silence_threshold_(config.silence_threshold) {
  if (silence_threshold_ == 0) {
    throw std::invalid_argument("BatchSelfHealingMis: silence_threshold must be >= 1");
  }
}

void BatchSelfHealingMis::reset(const graph::Graph& g,
                                std::span<support::Xoshiro256StarStar> rngs) {
  BatchLocalFeedbackMis::reset(g, rngs);
  silence_.assign(static_cast<std::size_t>(g.node_count()) * lane_count(), 0);
  nonzero_.assign(g.node_count(), 0);
}

void BatchSelfHealingMis::react(sim::BatchContext& ctx) {
  BatchLocalFeedbackMis::react(ctx);
  // Scalar on_round_complete runs at the very end of the announcement
  // exchange's react, after this round's joins and deactivations landed.
  if (ctx.exchange() + 1 == exchanges_per_round()) heal(ctx);
}

void BatchSelfHealingMis::heal(sim::BatchContext& ctx) {
  // The scalar pass scans every node (dominated nodes are off the active
  // frontier); one plane load per node here serves all lanes at once.
  // heard_mask reflects the announcement exchange, which includes the MIS
  // keep-alive beeps — a dominated node with a live dominator always
  // hears, so its silence counter stays at zero.  Lanes outside
  // running_mask are frozen: their scalar runs have already returned.
  const LaneMask running = ctx.running_mask();
  const unsigned lanes = lane_count();
  const graph::NodeId n = ctx.graph().node_count();
  for (graph::NodeId v = 0; v < n; ++v) {
    const LaneMask dom = ctx.dominated_mask(v) & running;
    if (!dom) continue;
    const LaneMask heard = ctx.heard_mask(v);
    const LaneMask silent = dom & ~heard;
    LaneMask pending = nonzero_[v];
    // Only lanes whose counter actually changes need the per-lane loop:
    // silent lanes tick up, heard lanes with a pending count reset to zero.
    // Every other dominated lane already sits at zero — the overwhelmingly
    // common case in a keep-alive tail, where this is one compare per node.
    const LaneMask touch = silent | (dom & heard & pending);
    if (!touch) continue;
    std::uint32_t* sv = &silence_[static_cast<std::size_t>(v) * lanes];
    LaneMask renewed = 0;
    for (LaneMask b = touch; b != 0; b &= b - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(b));
      const LaneMask bit = LaneMask{1} << l;
      if (!(silent & bit)) {
        sv[l] = 0;
        pending &= ~bit;
      } else if (++sv[l] >= silence_threshold_) {
        sv[l] = 0;
        pending &= ~bit;
        reset_lane_probability(v, l);
        renewed |= bit;
      } else {
        pending |= bit;
      }
    }
    nonzero_[v] = pending;
    if (renewed) ctx.reactivate(v, renewed);
  }
}

}  // namespace beepmis::mis
