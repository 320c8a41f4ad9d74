// Shared announcement-exchange logic of the batched MIS kernels — the
// lane-parallel mirror of BeepingMisSkeleton's second exchange (Table 1
// lines 11-15).  Every batched kernel of the two-exchange family carries a
// per-node LaneMask winner plane; the announce emit and the join/dominate
// react over it are protocol-independent and must stay identical across
// kernels (a divergence breaks lane parity for just that protocol), so
// they live here once.
#pragma once

#include <vector>

#include "sim/batch.hpp"
#include "support/lane_block.hpp"

namespace beepmis::mis::batch_skeleton {

/// Announcement-exchange emit: first-exchange winners that are still live
/// keep signalling.
inline void announce_winners(sim::BatchContext& ctx,
                             const std::vector<sim::LaneMask>& winner) {
  for (const graph::NodeId v : ctx.active_nodes()) {
    const sim::LaneMask m = winner[v] & ctx.live_mask(v);
    if (m) ctx.beep(v, m);
  }
}

/// Intent emit on the lane block (eight lanes per AVX-512 op
/// where the host has it): every live node clears its winner plane and
/// beeps in the lanes that `draw(block, row, live)` fires, where `row` is
/// the node's per-lane exponent row.  The lane streams are copied into the
/// block for the sweep and back after it, so the draws are exactly those
/// of one bernoulli_pow2 per live lane on ctx.rng(l).
template <typename Exponent, typename Draw>
void emit_intent_on_lane_block(sim::BatchContext& ctx, std::vector<sim::LaneMask>& winner,
                               const std::vector<Exponent>& exponents, Draw draw) {
  const unsigned lanes = ctx.lane_count();
  support::LaneBlock block;
  for (unsigned l = 0; l < lanes; ++l) block.load(l, ctx.rng(l));
  for (const graph::NodeId v : ctx.active_nodes()) {
    const sim::LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    winner[v] = 0;
    const sim::LaneMask beeps =
        draw(block, &exponents[static_cast<std::size_t>(v) * lanes], live);
    if (beeps) ctx.beep(v, beeps);
  }
  for (unsigned l = 0; l < lanes; ++l) block.store(l, ctx.rng(l));
}

/// Announcement-exchange react: winners join the MIS; anyone else (still
/// live) who heard the announcement becomes dominated.
inline void apply_round_outcome(sim::BatchContext& ctx,
                                const std::vector<sim::LaneMask>& winner) {
  for (const graph::NodeId v : ctx.active_nodes()) {
    const sim::LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    const sim::LaneMask joins = winner[v] & live;
    const sim::LaneMask dominated = ctx.heard_mask(v) & live & ~joins;
    if (joins) ctx.join_mis(v, joins);
    if (dominated) ctx.deactivate(v, dominated);
  }
}

}  // namespace beepmis::mis::batch_skeleton
