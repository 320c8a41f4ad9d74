// Definition 1 implemented *verbatim*: each node carries the integer
// exponent n(v, t) of the paper and beeps with probability 2^{-n(v,t)},
// with n(0, v) = 1, n -> max(n-1, 1) after a silent step and n -> n+1
// after hearing a beep.
//
// With the default LocalFeedbackConfig (factor 2, p0 = 1/2, max 1/2) the
// floating-point LocalFeedbackMis computes exactly the same dyadic
// probabilities, so the two implementations must produce *identical*
// executions from the same seed — a strong cross-validation exploited by
// tests/test_exact_feedback.cpp.  This variant also cannot underflow, so
// it is the reference for adversarial long-running instances.
#pragma once

#include <cstdint>
#include <vector>

#include "mis/skeleton.hpp"

namespace beepmis::mis {

class ExactLocalFeedbackMis final : public BeepingMisSkeleton {
 public:
  [[nodiscard]] std::string_view name() const override { return "local-feedback-exact"; }

  /// Batched 64-lane kernel (BatchExactLocalFeedbackMis).  Never nullptr:
  /// the class is final and carries no configuration.
  [[nodiscard]] std::unique_ptr<sim::BatchProtocol> make_batch_protocol() const override;

  /// Sharded single-run execution: exponent_ is per-node and the hooks
  /// are draw-free.  No typeid guard needed — the class is final.
  [[nodiscard]] sim::ShardSupport shard_support() const override {
    return skeleton_shard_support();
  }

  /// The paper's n(v, t) for node v (valid after reset).
  [[nodiscard]] std::uint32_t exponent_of(graph::NodeId v) const { return exponent_.at(v); }

 protected:
  void on_reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) override;
  [[nodiscard]] double beep_probability(graph::NodeId v, std::size_t round) const override;
  void on_feedback(graph::NodeId v, bool heard_beep, std::size_t round) override;

 private:
  std::vector<std::uint32_t> exponent_;
};

}  // namespace beepmis::mis
