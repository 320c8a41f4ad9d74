// Self-healing MIS maintenance (extension; §6 motivates ad hoc networks,
// where MIS members die).
//
// Requires SimConfig::mis_keepalive: a live MIS member beeps every
// exchange, so its dominated neighbours hear *something* every round.  A
// dominated node that hears pure silence for `silence_threshold`
// consecutive rounds concludes every dominator (and competing neighbour)
// is gone, resets its probability and re-enters the competition; the
// normal local-feedback protocol then re-converges in the damaged
// neighbourhood.  Safety is unconditional (reactivated nodes obey the
// usual two-exchange rules); the threshold only trades detection latency
// against spurious reactivations, of which there are none on reliable
// channels (silence while a dominator lives is impossible).
#pragma once

#include <cstdint>
#include <vector>

#include "mis/local_feedback.hpp"

namespace beepmis::mis {

struct SelfHealingConfig {
  LocalFeedbackConfig base = LocalFeedbackConfig::paper();
  /// Rounds of total silence before a dominated node reactivates.
  unsigned silence_threshold = 3;
};

class SelfHealingLocalFeedbackMis final : public LocalFeedbackMis {
 public:
  explicit SelfHealingLocalFeedbackMis(SelfHealingConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "local-feedback-healing"; }

  /// Batched 64-lane kernel (BatchSelfHealingMis).  Overrides the nullptr
  /// that LocalFeedbackMis's typeid guard hands to subclasses: the healing
  /// kernel reproduces the reactivation pass, so this final class is
  /// batch-capable again.
  [[nodiscard]] std::unique_ptr<sim::BatchProtocol> make_batch_protocol() const override;

  /// Sharded execution is supported: the healing pass is draw-free and
  /// strictly per-node (silence counters, probability resets, reactivate
  /// calls), and on_round_complete restricts its scan to the context's
  /// [node_begin, node_end) range so each shard heals only its own slice.
  /// Reactivation counts live in the simulator's mutation sink
  /// (RunResult::reactivations), not protocol state, so no counter is
  /// shared across shards.  Overrides the base's typeid refusal.
  [[nodiscard]] sim::ShardSupport shard_support() const override;

 protected:
  void on_reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) override;
  void on_round_complete(sim::BeepContext& ctx) override;

 private:
  SelfHealingConfig config_;
  std::vector<std::uint32_t> silence_;
};

}  // namespace beepmis::mis
