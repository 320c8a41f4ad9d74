// The paper's primary contribution: beeping MIS with *locally chosen*
// probabilities driven by neighbour feedback (Definition 1 / Table 1).
//
// Every node starts with beep probability 1/2.  After the intent exchange:
//   * heard a beep  -> divide p by the node's feedback factor (default 2);
//   * heard nothing -> multiply p by the factor, capped at max_p = 1/2.
// Expected termination is O(log n) rounds (Theorem 2 / Corollary 5) and
// each node beeps O(1) times in expectation (Theorem 6).
//
// The configuration exposes the robustness knobs discussed in the paper's
// conclusion: feedback factors may differ per node (drawn uniformly from
// [factor_low, factor_high]) and initial probabilities may differ per node
// (drawn uniformly from [initial_p_low, initial_p_high]).
#pragma once

#include <vector>

#include "mis/skeleton.hpp"

namespace beepmis::mis {

struct LocalFeedbackConfig {
  double initial_p_low = 0.5;
  double initial_p_high = 0.5;
  double factor_low = 2.0;
  double factor_high = 2.0;
  double max_p = 0.5;

  /// Exact parameters of Definition 1 (all nodes: p0 = 1/2, factor 2).
  [[nodiscard]] static LocalFeedbackConfig paper() { return {}; }
  /// Throws std::invalid_argument when parameters are out of range.
  void validate() const;
};

class LocalFeedbackMis : public BeepingMisSkeleton {
 public:
  explicit LocalFeedbackMis(LocalFeedbackConfig config = LocalFeedbackConfig::paper());

  [[nodiscard]] std::string_view name() const override { return "local-feedback"; }

  /// Batched 64-lane kernel (BatchLocalFeedbackMis).  Returns nullptr
  /// from subclasses: a
  /// derived protocol (e.g. self-healing) changes behaviour the batched
  /// kernel does not model, and silently batching it would break the
  /// lane-for-lane identity contract.
  [[nodiscard]] std::unique_ptr<sim::BatchProtocol> make_batch_protocol() const override;

  /// Sharded single-run execution (sim::ShardedSimulator): the skeleton's
  /// one-draw-per-active-node contract holds and all hook state (p_,
  /// factor_, winner_) is per-node.  Refuses subclasses for the same
  /// reason make_batch_protocol does.
  [[nodiscard]] sim::ShardSupport shard_support() const override;

  /// Current beep probability of node v (for tests and introspection).
  [[nodiscard]] double probability_of(graph::NodeId v) const { return p_.at(v); }
  /// The feedback factor assigned to node v at reset.
  [[nodiscard]] double factor_of(graph::NodeId v) const { return factor_.at(v); }
  [[nodiscard]] const LocalFeedbackConfig& config() const noexcept { return config_; }

 protected:
  void on_reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) override;
  [[nodiscard]] double beep_probability(graph::NodeId v, std::size_t round) const override;
  void on_feedback(graph::NodeId v, bool heard_beep, std::size_t round) override;

  /// For maintenance subclasses: reset node v's probability (clamped to
  /// max_p) when it re-enters the competition.
  void set_probability(graph::NodeId v, double p);

 private:
  LocalFeedbackConfig config_;
  std::vector<double> p_;
  std::vector<double> factor_;
};

}  // namespace beepmis::mis
