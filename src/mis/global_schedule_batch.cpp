#include "mis/global_schedule_batch.hpp"

#include <bit>
#include <stdexcept>

#include "mis/batch_skeleton.hpp"

namespace beepmis::mis {

using sim::LaneMask;

BatchGlobalScheduleMis::BatchGlobalScheduleMis(std::shared_ptr<const Schedule> schedule)
    : schedule_(std::move(schedule)) {
  if (!schedule_) throw std::invalid_argument("BatchGlobalScheduleMis: null schedule");
}

void BatchGlobalScheduleMis::reset(const graph::Graph& g,
                                   std::span<support::Xoshiro256StarStar> /*rngs*/) {
  // The scalar on_reset draws nothing; the whole per-run state is winner_.
  winner_.assign(g.node_count(), 0);
}

void BatchGlobalScheduleMis::emit(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // Intent exchange: every live (node, lane) beeps with the round's
    // scheduled probability, one output per pair in ascending node order —
    // each lane's subsequence is exactly its scalar draw order.
    const double p = schedule_->probability(ctx.round());
    for (const graph::NodeId v : ctx.active_nodes()) {
      const LaneMask live = ctx.live_mask(v);
      if (!live) continue;
      winner_[v] = 0;
      LaneMask beeps = 0;
      for (LaneMask b = live; b != 0; b &= b - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(b));
        if (ctx.rng(l).bernoulli(p)) beeps |= LaneMask{1} << l;
      }
      if (beeps) ctx.beep(v, beeps);
    }
  } else {
    batch_skeleton::announce_winners(ctx, winner_);
  }
}

void BatchGlobalScheduleMis::react(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // A beeper that heard nothing won the intent exchange (Table 1); global
    // schedules have no probability feedback.
    for (const graph::NodeId v : ctx.active_nodes()) {
      if (!ctx.live_mask(v)) continue;
      winner_[v] = ctx.beeped_mask(v) & ~ctx.heard_mask(v);
    }
  } else {
    batch_skeleton::apply_round_outcome(ctx, winner_);
  }
}

}  // namespace beepmis::mis
