// Batched (64-lane) kernel for the self-healing MIS maintenance protocol.
//
// Extends BatchLocalFeedbackMis exactly as the scalar protocol extends
// LocalFeedbackMis: after the announcement exchange of every round a
// healing pass scans the dominated planes, ticks a per-(node, lane)
// silence counter for lanes that heard nothing (keep-alive from a live
// dominator resets it), and once the counter reaches the threshold resets
// the lane's probability and reactivates the node via
// BatchContext::reactivate.  The pass masks everything with
// running_mask(): a lane that has left the round loop (its scalar run
// returned) must freeze its counters and planes.  No RNG draws are
// involved, so lane parity is pure state bookkeeping — pinned, including a
// per-lane reactivation-count identity (RunResult::reactivations, counted
// by the context's sink), by tests/test_batch_sim.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "mis/local_feedback_batch.hpp"
#include "mis/self_healing.hpp"

namespace beepmis::mis {

class BatchSelfHealingMis final : public BatchLocalFeedbackMis {
 public:
  explicit BatchSelfHealingMis(SelfHealingConfig config = {});

  [[nodiscard]] std::string_view name() const override {
    return "local-feedback-healing/batch";
  }

  void reset(const graph::Graph& g,
             std::span<support::Xoshiro256StarStar> rngs) override;
  void react(sim::BatchContext& ctx) override;

 private:
  void heal(sim::BatchContext& ctx);

  unsigned silence_threshold_;
  /// Node-major per-lane consecutive-silence counters for dominated nodes.
  std::vector<std::uint32_t> silence_;
  /// Lanes of v with a nonzero silence counter.  In the static keep-alive
  /// tail every dominated lane hears each round and all counters sit at
  /// zero, so the healing pass touches per-lane state only for lanes that
  /// went silent or must reset a nonzero counter — one plane compare per
  /// node instead of a 64-iteration inner loop.
  std::vector<sim::LaneMask> nonzero_;
};

}  // namespace beepmis::mis
