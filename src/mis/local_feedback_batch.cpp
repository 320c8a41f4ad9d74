#include "mis/local_feedback_batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "mis/batch_skeleton.hpp"

namespace beepmis::mis {

namespace {

using sim::LaneMask;

[[nodiscard]] inline unsigned lowest_lane(LaneMask b) noexcept {
  return static_cast<unsigned>(std::countr_zero(b));
}

/// p == 2^-k for an integer k >= 0?  (frexp: p = f * 2^e with f in
/// [0.5, 1); a power of two has f == 0.5 exactly, and then p = 2^(e-1),
/// i.e. k = 1 - e.)
[[nodiscard]] bool negative_pow2_exponent(double p, unsigned* k) {
  int e = 0;
  if (!(p > 0.0) || std::frexp(p, &e) != 0.5 || e > 1) return false;
  *k = static_cast<unsigned>(1 - e);
  return true;
}

/// Exponent at which the halving sequence 2^-k reaches exact 0.0:
/// 2^-1074 is the smallest subnormal, and 2^-1075 rounds to even (0).
constexpr std::uint16_t kZeroExponent = support::LaneBlock::kZeroExponent;

}  // namespace

BatchLocalFeedbackMis::BatchLocalFeedbackMis(LocalFeedbackConfig config)
    : config_(config) {
  config_.validate();
}

void BatchLocalFeedbackMis::reset(const graph::Graph& g,
                                  std::span<support::Xoshiro256StarStar> rngs) {
  const graph::NodeId n = g.node_count();
  lanes_ = static_cast<unsigned>(rngs.size());
  winner_.assign(n, 0);
  const bool hetero_p = config_.initial_p_high > config_.initial_p_low;
  const bool hetero_factor = config_.factor_high > config_.factor_low;

  unsigned k0 = 0;
  unsigned k_cap = 0;
  dyadic_ = !hetero_p && !hetero_factor && config_.factor_low == 2.0 &&
            negative_pow2_exponent(config_.initial_p_low, &k0) &&
            negative_pow2_exponent(config_.max_p, &k_cap);
  if (dyadic_) {
    // Scalar reset clamps p0 to max_p, i.e. k = max(k0, k_cap); no draws.
    k_min_ = static_cast<std::uint16_t>(k_cap);
    k_reset_ = static_cast<std::uint16_t>(std::max(k0, k_cap));
    k_.assign(static_cast<std::size_t>(n) * lanes_, k_reset_);
    p_.clear();
    factor_.clear();
    return;
  }

  const std::size_t cells = static_cast<std::size_t>(n) * lanes_;
  k_.clear();
  p_.assign(cells, config_.initial_p_low);
  factor_.clear();
  if (hetero_factor) factor_.assign(cells, config_.factor_low);
  // Scalar reset order per lane: ascending v, p draw before factor draw.
  // Lanes use disjoint RNG streams, so the lane-outer loop is equivalent.
  for (unsigned l = 0; l < lanes_; ++l) {
    support::Xoshiro256StarStar& rng = rngs[l];
    for (graph::NodeId v = 0; v < n; ++v) {
      double& p = p_[static_cast<std::size_t>(v) * lanes_ + l];
      if (hetero_p) {
        p = config_.initial_p_low +
            rng.uniform01() * (config_.initial_p_high - config_.initial_p_low);
      }
      if (hetero_factor) {
        factor_[static_cast<std::size_t>(v) * lanes_ + l] =
            config_.factor_low +
            rng.uniform01() * (config_.factor_high - config_.factor_low);
      }
      p = std::min(p, config_.max_p);
    }
  }
}

void BatchLocalFeedbackMis::reset_lane_probability(graph::NodeId v, unsigned lane) {
  if (dyadic_) {
    k_[static_cast<std::size_t>(v) * lanes_ + lane] = k_reset_;
  } else {
    p_[static_cast<std::size_t>(v) * lanes_ + lane] =
        std::min(config_.initial_p_low, config_.max_p);
  }
}

void BatchLocalFeedbackMis::emit_intent_dyadic(sim::BatchContext& ctx) {
  // One rng() output per draw, exactly like the scalar bernoulli; the
  // endpoint behaviour (subnormal region, 2^-1075 underflow to
  // never-beep) is single-sourced in bernoulli_pow2, and the lane block's
  // SIMD draw is pinned to it.
  batch_skeleton::emit_intent_on_lane_block(
      ctx, winner_, k_, [](support::LaneBlock& block, const std::uint16_t* k, LaneMask live) {
        return block.draw_pow2(k, live);
      });
}

void BatchLocalFeedbackMis::emit_intent_general(sim::BatchContext& ctx) {
  for (const graph::NodeId v : ctx.active_nodes()) {
    const LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    winner_[v] = 0;
    const double* pv = &p_[static_cast<std::size_t>(v) * lanes_];
    LaneMask beeps = 0;
    for (LaneMask b = live; b != 0; b &= b - 1) {
      const unsigned l = lowest_lane(b);
      if (ctx.rng(l).bernoulli(pv[l])) beeps |= LaneMask{1} << l;
    }
    if (beeps) ctx.beep(v, beeps);
  }
}

void BatchLocalFeedbackMis::emit(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // Intent exchange: each live (node, lane) beeps with its probability,
    // drawing from the lane's own RNG in ascending node order.
    if (dyadic_) {
      emit_intent_dyadic(ctx);
    } else {
      emit_intent_general(ctx);
    }
  } else {
    batch_skeleton::announce_winners(ctx, winner_);
  }
}

void BatchLocalFeedbackMis::react_feedback(sim::BatchContext& ctx) {
  const bool hetero_factor = !factor_.empty();
  const double uniform_factor = config_.factor_low;
  for (const graph::NodeId v : ctx.active_nodes()) {
    const LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    const LaneMask heard = ctx.heard_mask(v);
    // A beeper that heard nothing won the intent exchange (Table 1).
    winner_[v] = ctx.beeped_mask(v) & ~heard;
    const std::size_t base = static_cast<std::size_t>(v) * lanes_;
    if (dyadic_) {
      // Exponent form of the feedback rule: /2 is k+1 (sticking at exact
      // zero), *2-capped-at-max_p is k-1 floored at k_min.
      support::LaneBlock::feedback_pow2(&k_[base], live, heard, k_min_);
      continue;
    }
    // Local feedback with the scalar expressions so the doubles stay
    // bit-identical: divide on heard, multiply-and-cap on silence.
    double* pv = &p_[base];
    for (LaneMask b = live; b != 0; b &= b - 1) {
      const unsigned l = lowest_lane(b);
      const double f = hetero_factor ? factor_[base + l] : uniform_factor;
      if ((heard >> l) & 1u) {
        pv[l] /= f;
      } else {
        pv[l] = std::min(config_.max_p, pv[l] * f);
      }
    }
  }
}

void BatchLocalFeedbackMis::react(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    react_feedback(ctx);
  } else {
    batch_skeleton::apply_round_outcome(ctx, winner_);
  }
}

}  // namespace beepmis::mis
