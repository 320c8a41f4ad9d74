// Fault scenarios: adversaries consulted at round boundaries.
//
// The static per-node wake_round/crash_round vectors (SimConfig) model the
// weakest adversary: the whole fault schedule is fixed before the run and
// blind to protocol state.  A FaultScenario generalises this to an
// *adaptive* adversary — a scheduler the simulator consults at the top of
// every round with a read-only view of the live run (statuses, the awake
// active list, the live MIS in join order) that replies with this round's
// crash / revive / wake events.
//
// Determinism contract: a scenario's event stream is a pure function of
// (graph, its own config incl. seed, the observed run states).  Scenario
// randomness comes from the scenario's OWN seed (never the run rng), with
// internal sub-streams separated by jump() — so a schedule drawn by an
// oblivious scenario is independent of the trial seed, which is exactly
// what lets the trial harness materialise it once per shared graph and
// keep the batched/sharded fast paths (see ScenarioKind).
//
// Event semantics at the round boundary (after the legacy static-vector
// events fire, before the round's first exchange):
//  * kWake:   a still-sleeping node (kActive, not yet awake) joins the
//             active list now — an early wake.  No-op on awake/decided
//             nodes.
//  * kCrash:  fail-stop, same as a crash_round entry.  No-op on already
//             crashed nodes.
//  * kRevive: a crashed node comes back as kActive and re-enters the
//             competition this round (recovery churn; recorded in traces
//             as EventKind::kRevive).  No-op on non-crashed nodes.
// Events for out-of-range node ids throw std::invalid_argument.  Within a
// round the simulator applies all wakes, then all crashes, then all
// revives, each kind in ascending node id, regardless of emission order.
//
// The scenario cannot extend the run: pair it with
// SimConfig::run_until_round so the simulator is still alive when the
// events are due.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/result.hpp"
#include "support/rng.hpp"

namespace beepmis::sim {

enum class ScenarioEventKind : std::uint8_t { kWake, kCrash, kRevive };

struct ScenarioEvent {
  ScenarioEventKind kind = ScenarioEventKind::kCrash;
  graph::NodeId node = 0;

  friend constexpr bool operator==(const ScenarioEvent&, const ScenarioEvent&) = default;
};

/// Read-only snapshot handed to FaultScenario::on_round at the top of a
/// round (fault events of the static schedule already applied, no exchange
/// run yet).  Spans alias simulator state: valid only during the call.
struct ScenarioView {
  const graph::Graph& graph;
  std::size_t round;
  /// Per-node fates; kActive covers both awake and still-sleeping nodes.
  std::span<const NodeStatus> status;
  /// Awake active nodes, ascending.
  std::span<const graph::NodeId> active;
  /// Live MIS members in join order (crashed members already pruned).
  std::span<const graph::NodeId> mis_nodes;
};

/// How much of the run a scenario observes — the property the trial
/// harness keys its fast-path routing on (see harness::plan_execution and
/// the routing table in src/sim/README.md).
enum class ScenarioKind : std::uint8_t {
  /// A function of (graph, config) alone, expressible as crash_round
  /// vectors via materialize_crash_rounds().  The harness folds it into
  /// the static schedule, so batched and sharded execution stay available
  /// and bit-identical to the equivalent static-vector run.
  kStaticSchedule,
  /// State-blind but not vector-shaped (revives, multi-event churn): the
  /// stream could be pre-drawn, but needs the scalar event driver.
  kObliviousStream,
  /// Observes live run state; only the scalar simulator may execute it,
  /// and the auto-batch/auto-shard heuristics must refuse it.
  kAdaptive,
};

class FaultScenario {
 public:
  virtual ~FaultScenario() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual ScenarioKind kind() const = 0;
  /// Fresh instance with identical config and pristine state, so each
  /// trial-harness worker can own (and reset) its own copy.
  [[nodiscard]] virtual std::unique_ptr<FaultScenario> clone() const = 0;

  /// Called once at the start of every run; must fully reinitialise all
  /// per-run state (rng streams reseeded from the scenario's own seed) so
  /// one instance reused across runs stays a pure function of its inputs.
  virtual void reset(const graph::Graph& g) = 0;
  /// Appends this round's events to `out` (order irrelevant; see the
  /// application rules above).  Called every round, including rounds where
  /// the scenario emits nothing.
  virtual void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) = 0;

  /// kStaticSchedule only: the equivalent per-node crash_round vector
  /// (UINT32_MAX = never), such that running with it in
  /// SimConfig::crash_round is bit-identical to running this scenario
  /// live.  Throws std::logic_error for other kinds.
  [[nodiscard]] virtual std::vector<std::uint32_t> materialize_crash_rounds(
      const graph::Graph& g) const;
};

// ---------------------------------------------------------------------------
// Scenario library.  All scenarios are deterministic per (seed, config).

/// The existing static vectors re-expressed as a scenario: replays an
/// explicit crash_round vector through the round-boundary driver.  The
/// differential oracle pinning driver == static-schedule equivalence runs
/// through this class.
class StaticScheduleScenario final : public FaultScenario {
 public:
  explicit StaticScheduleScenario(std::vector<std::uint32_t> crash_round);

  [[nodiscard]] std::string_view name() const override { return "static-schedule"; }
  [[nodiscard]] ScenarioKind kind() const override { return ScenarioKind::kStaticSchedule; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;
  [[nodiscard]] std::vector<std::uint32_t> materialize_crash_rounds(
      const graph::Graph& g) const override;

 private:
  std::vector<std::uint32_t> crash_round_;
  std::vector<std::pair<std::uint32_t, graph::NodeId>> queue_;  ///< (round, node) sorted
  std::size_t next_ = 0;
};

/// Baseline non-adversary: each node independently crashes with
/// probability `fraction`, at a round uniform in [round_lo, round_hi].
struct UniformRandomCrashConfig {
  double fraction = 0.05;
  std::uint32_t round_lo = 0;
  std::uint32_t round_hi = 0;
  std::uint64_t seed = 1;
};
class UniformRandomCrash final : public FaultScenario {
 public:
  explicit UniformRandomCrash(UniformRandomCrashConfig config);

  [[nodiscard]] std::string_view name() const override { return "uniform-crash"; }
  [[nodiscard]] ScenarioKind kind() const override { return ScenarioKind::kStaticSchedule; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;
  [[nodiscard]] std::vector<std::uint32_t> materialize_crash_rounds(
      const graph::Graph& g) const override;

 private:
  UniformRandomCrashConfig config_;
  StaticScheduleScenario inner_{{}};
};

/// Crashes the `count` highest-degree nodes (ties to the lower id), each at
/// a round uniform in [round_lo, round_hi] drawn in rank order.
struct TargetHighDegreeConfig {
  std::size_t count = 16;
  std::uint32_t round_lo = 0;
  std::uint32_t round_hi = 0;
  std::uint64_t seed = 1;
};
class TargetHighDegree final : public FaultScenario {
 public:
  explicit TargetHighDegree(TargetHighDegreeConfig config);

  [[nodiscard]] std::string_view name() const override { return "target-degree"; }
  [[nodiscard]] ScenarioKind kind() const override { return ScenarioKind::kStaticSchedule; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;
  [[nodiscard]] std::vector<std::uint32_t> materialize_crash_rounds(
      const graph::Graph& g) const override;

 private:
  TargetHighDegreeConfig config_;
  StaticScheduleScenario inner_{{}};
};

/// Crashes graph::Partition boundary nodes (nodes with a neighbour in
/// another shard) — the nodes whose failure stresses cross-shard
/// coordination.  Each boundary node crashes with probability `fraction`
/// at a round uniform in [round_lo, round_hi].
struct TargetBoundaryConfig {
  std::uint32_t shards = 2;
  double fraction = 1.0;
  std::uint32_t round_lo = 0;
  std::uint32_t round_hi = 0;
  std::uint64_t seed = 1;
};
class TargetBoundary final : public FaultScenario {
 public:
  explicit TargetBoundary(TargetBoundaryConfig config);

  [[nodiscard]] std::string_view name() const override { return "target-boundary"; }
  [[nodiscard]] ScenarioKind kind() const override { return ScenarioKind::kStaticSchedule; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;
  [[nodiscard]] std::vector<std::uint32_t> materialize_crash_rounds(
      const graph::Graph& g) const override;

 private:
  TargetBoundaryConfig config_;
  StaticScheduleScenario inner_{{}};
};

/// Adaptive adversary: crashes MIS members the round after they join.
/// Members already in the set when `start_round` arrives are spared (so an
/// initial MIS can form); from then on every fresh joiner is killed with
/// probability `probability` until `budget` crashes have been spent.
struct TargetMisMembersConfig {
  std::uint32_t start_round = 0;
  std::size_t budget = SIZE_MAX;
  double probability = 1.0;
  std::uint64_t seed = 1;
};
class TargetMisMembers final : public FaultScenario {
 public:
  explicit TargetMisMembers(TargetMisMembersConfig config);

  [[nodiscard]] std::string_view name() const override { return "target-mis"; }
  [[nodiscard]] ScenarioKind kind() const override { return ScenarioKind::kAdaptive; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;

 private:
  TargetMisMembersConfig config_;
  support::Xoshiro256StarStar rng_{1};
  std::vector<std::uint8_t> seen_;  ///< members already observed (spared or hit)
  std::size_t crashes_used_ = 0;
};

/// Continuous Poisson churn: in every round of [round_lo, round_hi) a
/// Poisson(rate)-distributed number of uniformly chosen nodes crash; each
/// victim revives after a geometric delay with mean `revive_delay_mean`.
/// Oblivious — victims are drawn over all node ids, so a draw can land on
/// an already-down node and fizzle — but the revive stream makes it
/// non-materialisable (kObliviousStream).  Crash and revive randomness are
/// jump()-partitioned halves of the scenario seed's stream.
struct ChurnStreamConfig {
  double rate = 1.0;               ///< expected crashes per round
  double revive_delay_mean = 8.0;  ///< mean rounds a victim stays down
  std::uint32_t round_lo = 0;
  std::uint32_t round_hi = UINT32_MAX;
  std::uint64_t seed = 1;
};
class ChurnStream final : public FaultScenario {
 public:
  explicit ChurnStream(ChurnStreamConfig config);

  [[nodiscard]] std::string_view name() const override { return "churn"; }
  [[nodiscard]] ScenarioKind kind() const override { return ScenarioKind::kObliviousStream; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;

 private:
  ChurnStreamConfig config_;
  support::Xoshiro256StarStar crash_rng_{1};
  support::Xoshiro256StarStar revive_rng_{1};
  std::vector<std::uint8_t> down_;  ///< nodes this scenario has crashed
  using Revive = std::pair<std::uint64_t, graph::NodeId>;  ///< (due round, node)
  std::priority_queue<Revive, std::vector<Revive>, std::greater<>> pending_;
};

/// Greedy worst-case adversary under a total-crashes budget: each round
/// from `start_round` on it spends up to `crashes_per_round` of its budget
/// on the MIS members whose crash uncovers the most nodes (most dominated
/// neighbours; ties to the lower id).
struct BudgetedAdversaryConfig {
  std::size_t budget = 16;
  std::uint32_t start_round = 0;
  unsigned crashes_per_round = 1;
};
class BudgetedAdversary final : public FaultScenario {
 public:
  explicit BudgetedAdversary(BudgetedAdversaryConfig config);

  [[nodiscard]] std::string_view name() const override { return "budgeted"; }
  [[nodiscard]] ScenarioKind kind() const override { return ScenarioKind::kAdaptive; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;

 private:
  BudgetedAdversaryConfig config_;
  std::size_t budget_left_ = 0;
};

/// Fixed event script, for tests and fuzzing: emits exactly the given
/// events at their rounds, with a caller-declared kind (default kAdaptive,
/// so scripts exercise the scalar driver and the fast-path refusal).
class ScriptedScenario final : public FaultScenario {
 public:
  struct Step {
    std::uint32_t round = 0;
    ScenarioEvent event;
  };
  explicit ScriptedScenario(std::vector<Step> steps,
                            ScenarioKind kind = ScenarioKind::kAdaptive);

  [[nodiscard]] std::string_view name() const override { return "scripted"; }
  [[nodiscard]] ScenarioKind kind() const override { return kind_; }
  [[nodiscard]] std::unique_ptr<FaultScenario> clone() const override;
  void reset(const graph::Graph& g) override;
  void on_round(const ScenarioView& view, std::vector<ScenarioEvent>& out) override;

 private:
  std::vector<Step> steps_;  ///< stably sorted by round
  ScenarioKind kind_;
  std::size_t next_ = 0;
};

}  // namespace beepmis::sim
