#include "mis/exact_feedback_batch.hpp"

#include "mis/batch_skeleton.hpp"

namespace beepmis::mis {

using sim::LaneMask;

void BatchExactLocalFeedbackMis::reset(const graph::Graph& g,
                                       std::span<support::Xoshiro256StarStar> rngs) {
  // n(0, v) = 1 everywhere; the scalar on_reset draws nothing.
  const graph::NodeId n = g.node_count();
  lanes_ = static_cast<unsigned>(rngs.size());
  winner_.assign(n, 0);
  exponent_.assign(static_cast<std::size_t>(n) * lanes_, 1);
}

void BatchExactLocalFeedbackMis::emit(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // Intent exchange: beep with 2^{-min(n, 1074)}.  The clamp mirrors the
    // scalar beep_probability (2^-1074, the smallest subnormal, is the
    // floor — unlike the floating local-feedback kernel there is no
    // exact-zero state).  One rng() output per live (node, lane) in
    // ascending node order, single-sourced in bernoulli_pow2.
    batch_skeleton::emit_intent_on_lane_block(
        ctx, winner_, exponent_,
        [](support::LaneBlock& block, const std::uint32_t* k, LaneMask live) {
          return block.draw_pow2(k, live, 1074);
        });
  } else {
    batch_skeleton::announce_winners(ctx, winner_);
  }
}

void BatchExactLocalFeedbackMis::react(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // Definition 1 feedback in exponent form: heard -> n + 1 (halve p),
    // silence -> max(n - 1, 1) (double p, capped at 1/2), on the lane
    // block.
    for (const graph::NodeId v : ctx.active_nodes()) {
      const LaneMask live = ctx.live_mask(v);
      if (!live) continue;
      const LaneMask heard = ctx.heard_mask(v);
      winner_[v] = ctx.beeped_mask(v) & ~heard;
      support::LaneBlock::feedback_exact(&exponent_[static_cast<std::size_t>(v) * lanes_],
                                         live, heard);
    }
  } else {
    batch_skeleton::apply_round_outcome(ctx, winner_);
  }
}

}  // namespace beepmis::mis
