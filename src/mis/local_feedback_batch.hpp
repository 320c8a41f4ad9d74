// Batched (64-lane) kernel for the paper's local-feedback MIS protocol.
//
// Replays the exact scalar computation of BeepingMisSkeleton +
// LocalFeedbackMis for up to 64 independent seeds at once: per-node
// winner/beep flags become LaneMask bitplanes, and the per-node beep
// probability / feedback factor become node-major per-lane arrays
// (p_[v * lanes + l]).  Every lane's RNG draws and floating-point updates
// happen in the scalar order with the scalar expressions, so lane l is
// bit-identical to a scalar run — pinned by tests/test_batch_sim.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "mis/batch_skeleton.hpp"
#include "mis/local_feedback.hpp"
#include "sim/batch.hpp"

namespace beepmis::mis {

class BatchLocalFeedbackMis : public sim::BatchProtocol {
 public:
  explicit BatchLocalFeedbackMis(LocalFeedbackConfig config = LocalFeedbackConfig::paper());

  [[nodiscard]] std::string_view name() const override { return "local-feedback/batch"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 2; }

  void reset(const graph::Graph& g,
             std::span<support::Xoshiro256StarStar> rngs) override;
  void emit(sim::BatchContext& ctx) override;
  void react(sim::BatchContext& ctx) override;

 protected:
  // For maintenance subclasses (the batched mirror of
  // LocalFeedbackMis::set_probability with the scalar healing argument):
  // reset lane l of node v to min(initial_p_low, max_p), in whichever
  // representation (dyadic exponent / double) this config runs.
  void reset_lane_probability(graph::NodeId v, unsigned lane);

  [[nodiscard]] unsigned lane_count() const noexcept { return lanes_; }
  [[nodiscard]] const LocalFeedbackConfig& config() const noexcept { return config_; }

 private:
  void emit_intent_dyadic(sim::BatchContext& ctx);
  void emit_intent_general(sim::BatchContext& ctx);
  void react_feedback(sim::BatchContext& ctx);

  LocalFeedbackConfig config_;
  unsigned lanes_ = 0;
  std::vector<sim::LaneMask> winner_;

  // --- Dyadic fast path -----------------------------------------------
  // For homogeneous power-of-two configs (the paper's: p0 = 1/2, factor 2,
  // max_p = 1/2) every probability the scalar protocol can ever hold is an
  // exact power of two: p = 2^-k stays exact under /2, *2 and the max_p
  // cap, underflowing to exactly 0 at k = 1075 (2^-1074 is the smallest
  // subnormal; halving it rounds to even, i.e. 0, where it stays).  The
  // per-(node, lane) state is then a uint16 exponent, and the scalar
  // Bernoulli draw `(x >> 11) * 2^-53 < p` is the integer test
  // `k < 1075 && ((x >> 11) >> (k < 53 ? 53 - k : 0)) == 0` on the same
  // single rng() output — bit-identical, four bytes narrower per lane and
  // free of double multiplies.  Pinned against the scalar core by
  // tests/test_batch_sim.cpp.
  bool dyadic_ = false;
  std::uint16_t k_min_ = 1;    ///< exponent of max_p (cap on silence)
  std::uint16_t k_reset_ = 1;  ///< exponent of min(initial_p_low, max_p)
  std::vector<std::uint16_t> k_;  ///< node-major per-lane exponents

  // --- General path -----------------------------------------------------
  /// Node-major per-lane policy state: lane l of node v at [v * lanes_ + l],
  /// so one node's 64 lanes share cache lines during the emit/react sweeps.
  std::vector<double> p_;
  /// Allocated only for heterogeneous factor configs; homogeneous runs use
  /// config_.factor_low directly.
  std::vector<double> factor_;
};

}  // namespace beepmis::mis
