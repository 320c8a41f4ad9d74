// Shared announcement-exchange logic of the batched MIS kernels — the
// lane-parallel mirror of BeepingMisSkeleton's second exchange (Table 1
// lines 11-15).  Every batched kernel of the two-exchange family carries a
// per-node LaneMask winner plane; the announce emit and the join/dominate
// react over it are protocol-independent and must stay identical across
// kernels (a divergence breaks lane parity for just that protocol), so
// they live here once.
#pragma once

#include <bit>
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

/// kScalarOrder intent emit on the lane block (eight lanes per AVX-512 op
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

/// Bitplane-encoded per-lane dyadic exponents for the
/// BatchRngMode::kStatisticalLanes kernels: bit l of plane j of node v is
/// bit j of lane l's exponent k.  Everything a dyadic kernel does with the
/// exponents becomes whole-plane (all 64 lanes at once) instead of a
/// per-lane loop:
///
///  * draw — Bernoulli(2^-k_l) for every live lane of one node, by chunk
///    composition: for each set bit j of k, AND in an independent
///    Bernoulli(2^-2^j) plane (itself an AND of 2^j shared uniform planes
///    with early exit, so ~log2(lanes) bulk draws).  The product over set
///    bits is exactly 2^-k per lane; lanes of one node share entropy,
///    which statistical mode explicitly permits (marginals only).
///  * update — the feedback rule's +-1 becomes a ripple carry/borrow over
///    the planes (~2 expected plane ops); callers gate inc/dec with
///    equal() masks so saturation stays their policy.
///
/// Unlike the scalar-order kernels there is no exact-zero /
/// double-underflow state: draw() fires a k = 1075 lane with true
/// probability 2^-1075 instead of never (and the exact kernel's draw clamp
/// at 2^-1074 becomes the true 2^-k) — a difference no observable run can
/// distinguish, traded for plane-parallel state.
class ExponentPlanes {
 public:
  /// All (node, lane) exponents start at `initial`; values are `width`
  /// bits wide (callers must keep every reachable value below 2^width).
  void reset(graph::NodeId n, unsigned width, unsigned initial) {
    width_ = width;
    planes_.resize(static_cast<std::size_t>(n) * width);
    for (graph::NodeId v = 0; v < n; ++v) set_all(v, initial);
  }

  /// Tightest plane count that can hold `max_value` (clamped to the bound
  /// width).  Dyadic feedback moves exponents by at most one per round, so
  /// kernels pass max_value = initial + round + 1 and every sweep below
  /// skips the provably zero high planes.
  [[nodiscard]] unsigned width_for(unsigned max_value) const noexcept {
    return std::min(width_, static_cast<unsigned>(std::bit_width(max_value)));
  }

  /// Bernoulli(2^-k_l) bits for every lane l in `live` of node v.  `width`
  /// must come from width_for() with a valid bound.
  [[nodiscard]] sim::LaneMask draw(sim::BatchContext& ctx, graph::NodeId v,
                                   sim::LaneMask live, unsigned width) {
    const sim::LaneMask* row = &planes_[static_cast<std::size_t>(v) * width_];
    sim::LaneMask fire = live;
    for (unsigned j = 0; j < width && fire != 0; ++j) {
      const sim::LaneMask need = fire & row[j];
      if (need) {
        fire = (fire & ~row[j]) | ctx.bernoulli_plane_pow2(1u << j, need);
      }
    }
    return fire;
  }

  /// Lanes of v whose exponent equals `value`, under a width_for() bound.
  /// A value above the bound (e.g. the sticky-zero probe early in a run)
  /// costs one compare; otherwise planes walk MSB first and stop once
  /// every lane differs.
  [[nodiscard]] sim::LaneMask equal(graph::NodeId v, unsigned value,
                                    unsigned width) const {
    if (width < width_ && (value >> width) != 0) return 0;
    const sim::LaneMask* row = &planes_[static_cast<std::size_t>(v) * width_];
    sim::LaneMask diff = 0;
    for (unsigned j = width; j-- > 0;) {
      diff |= row[j] ^ ((value >> j) & 1u ? ~sim::LaneMask{0} : sim::LaneMask{0});
      if (diff == ~sim::LaneMask{0}) return 0;
    }
    return ~diff;
  }

  /// k += 1 on `inc` lanes, then k -= 1 on `dec` lanes (disjoint sets).
  /// Callers must exclude lanes that would wrap (all-ones on inc, zero on
  /// dec) via equal() — that keeps saturation policy out of the helper.
  void update(graph::NodeId v, sim::LaneMask inc, sim::LaneMask dec) {
    sim::LaneMask* row = &planes_[static_cast<std::size_t>(v) * width_];
    sim::LaneMask carry = inc;
    for (unsigned j = 0; j < width_ && carry != 0; ++j) {
      const sim::LaneMask t = row[j];
      row[j] = t ^ carry;
      carry &= t;
    }
    sim::LaneMask borrow = dec;
    for (unsigned j = 0; j < width_ && borrow != 0; ++j) {
      const sim::LaneMask t = row[j];
      row[j] = t ^ borrow;
      borrow &= ~t;
    }
  }

  /// Set one lane's exponent (maintenance resets; rare, so per-bit cost is
  /// fine).
  void set_lane(graph::NodeId v, unsigned lane, unsigned value) {
    sim::LaneMask* row = &planes_[static_cast<std::size_t>(v) * width_];
    const sim::LaneMask bit = sim::LaneMask{1} << lane;
    for (unsigned j = 0; j < width_; ++j) {
      if ((value >> j) & 1u) {
        row[j] |= bit;
      } else {
        row[j] &= ~bit;
      }
    }
  }

  /// Set every lane of v to `value` (reset).
  void set_all(graph::NodeId v, unsigned value) {
    sim::LaneMask* row = &planes_[static_cast<std::size_t>(v) * width_];
    for (unsigned j = 0; j < width_; ++j) {
      row[j] = (value >> j) & 1u ? ~sim::LaneMask{0} : sim::LaneMask{0};
    }
  }

 private:
  unsigned width_ = 0;
  std::vector<sim::LaneMask> planes_;  ///< node-major: [v * width_ + j]
};

}  // namespace beepmis::mis::batch_skeleton
