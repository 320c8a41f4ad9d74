// Fault-scenario coverage: differential oracles pinning the scenario
// driver to the static-vector semantics, fast-path routing (adaptive and
// oblivious scenarios must never reach the batched/sharded simulators),
// a validity property for every library adversary, and event-stream fuzz
// for the ScriptedScenario driver.
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/self_healing.hpp"
#include "mis/verifier.hpp"
#include "sim/batch.hpp"
#include "sim/beep.hpp"
#include "sim/sharded.hpp"
#include "support/rng.hpp"

namespace beepmis {
namespace {

constexpr std::uint32_t kNever = std::numeric_limits<std::uint32_t>::max();

graph::Graph fixture_graph(std::uint64_t seed = 99, graph::NodeId n = 80, double p = 0.1) {
  auto rng = support::Xoshiro256StarStar(seed);
  return graph::gnp(n, p, rng);
}

sim::RunResult run_healing(const graph::Graph& g, sim::SimConfig config,
                           std::uint64_t seed) {
  config.mis_keepalive = true;
  sim::BeepSimulator simulator(g, config);
  mis::SelfHealingLocalFeedbackMis protocol;
  return simulator.run(protocol, support::Xoshiro256StarStar(seed));
}

void expect_identical(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.beep_counts, b.beep_counts);
  EXPECT_EQ(a.total_beeps, b.total_beeps);
}

// ---------------------------------------------------------------------------
// Differential oracles: scenario driver == static crash_round vectors.

TEST(ScenarioOracle, StaticScheduleScenarioMatchesCrashRoundVector) {
  const graph::Graph g = fixture_graph();
  std::vector<std::uint32_t> crash(g.node_count(), kNever);
  for (graph::NodeId v = 0; v < g.node_count(); v += 7) {
    crash[v] = 3 + v % 11;
  }

  sim::SimConfig via_vector;
  via_vector.run_until_round = 20;
  via_vector.crash_round = crash;

  sim::SimConfig via_scenario;
  via_scenario.run_until_round = 20;
  via_scenario.scenario = std::make_shared<sim::StaticScheduleScenario>(crash);

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const sim::RunResult a = run_healing(g, via_vector, seed);
    const sim::RunResult b = run_healing(g, via_scenario, seed);
    expect_identical(a, b);
  }
}

TEST(ScenarioOracle, UniformRandomCrashLiveMatchesMaterialized) {
  const graph::Graph g = fixture_graph();
  sim::UniformRandomCrashConfig config;
  config.fraction = 0.2;
  config.round_lo = 4;
  config.round_hi = 14;
  config.seed = 1234;
  const auto scenario = std::make_shared<sim::UniformRandomCrash>(config);

  sim::SimConfig via_vector;
  via_vector.run_until_round = 25;
  via_vector.crash_round = scenario->materialize_crash_rounds(g);

  sim::SimConfig via_scenario;
  via_scenario.run_until_round = 25;
  via_scenario.scenario = scenario;

  // At least one node must actually be scheduled, or the oracle is vacuous.
  std::size_t scheduled = 0;
  for (std::uint32_t r : via_vector.crash_round) scheduled += (r != kNever);
  ASSERT_GT(scheduled, 0u);

  const sim::RunResult a = run_healing(g, via_vector, 7);
  const sim::RunResult b = run_healing(g, via_scenario, 7);
  expect_identical(a, b);
}

TEST(ScenarioOracle, MaterializeIsTrialSeedIndependent) {
  // The schedule must be a pure function of (graph, scenario config) — the
  // property the harness's materialise-once routing relies on.
  const graph::Graph g = fixture_graph();
  sim::TargetHighDegreeConfig config;
  config.count = 6;
  config.round_lo = 2;
  config.round_hi = 9;
  config.seed = 5;
  const sim::TargetHighDegree scenario(config);
  EXPECT_EQ(scenario.materialize_crash_rounds(g), scenario.materialize_crash_rounds(g));
}

TEST(ScenarioOracle, AdaptiveScenarioCannotMaterialize) {
  const sim::TargetMisMembers adaptive({});
  const sim::ChurnStream churn({});
  const graph::Graph g = fixture_graph(3, 10, 0.3);
  EXPECT_THROW((void)adaptive.materialize_crash_rounds(g), std::logic_error);
  EXPECT_THROW((void)churn.materialize_crash_rounds(g), std::logic_error);
}

// ---------------------------------------------------------------------------
// Harness routing: oblivious/static keep fast paths, adaptive is refused.

harness::GraphFactory fixed_gnp(graph::NodeId n = 60, double p = 0.12) {
  return [n, p](support::Xoshiro256StarStar& rng) { return graph::gnp(n, p, rng); };
}

harness::BeepProtocolFactory healing_protocol() {
  return [] { return std::make_unique<mis::SelfHealingLocalFeedbackMis>(); };
}

harness::TrialConfig scenario_trial_config() {
  harness::TrialConfig config;
  config.trials = 8;
  config.base_seed = 4242;
  config.threads = 2;
  config.shared_graph = true;
  config.sim.mis_keepalive = true;
  config.sim.run_until_round = 30;
  return config;
}

TEST(ScenarioHarness, StaticScenarioMatchesManualVectorThroughBatchedPath) {
  harness::TrialConfig with_scenario = scenario_trial_config();
  sim::UniformRandomCrashConfig sconfig;
  sconfig.fraction = 0.15;
  sconfig.round_lo = 3;
  sconfig.round_hi = 12;
  sconfig.seed = 77;
  with_scenario.scenario = [sconfig] {
    return std::make_unique<sim::UniformRandomCrash>(sconfig);
  };

  // Manual twin: the same shared graph (trial 0's graph seed) with the
  // scenario pre-materialised by hand.
  harness::TrialConfig manual = scenario_trial_config();
  {
    const support::SeedSequence root(manual.base_seed);
    auto rng = root.child(0).child(0).generator();
    const graph::Graph shared = fixed_gnp()(rng);
    manual.sim.crash_round = sim::UniformRandomCrash(sconfig).materialize_crash_rounds(shared);
  }

  const harness::TrialStats a =
      harness::run_beep_trials(fixed_gnp(), healing_protocol(), with_scenario);
  const harness::TrialStats b =
      harness::run_beep_trials(fixed_gnp(), healing_protocol(), manual);

  // Materialised static schedules keep the fast paths: no forced fallback.
  EXPECT_TRUE(a.scalar_fallback_reason.empty()) << a.scalar_fallback_reason;
  EXPECT_DOUBLE_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_DOUBLE_EQ(a.beeps_per_node.mean(), b.beeps_per_node.mean());
  EXPECT_DOUBLE_EQ(a.mis_size.mean(), b.mis_size.mean());
  EXPECT_EQ(a.valid, b.valid);
}

TEST(ScenarioHarness, StaticScenarioMatchesManualVectorThroughShardedPath) {
  harness::TrialConfig with_scenario = scenario_trial_config();
  with_scenario.trials = 2;
  with_scenario.shards = 2;  // force the sharded path for every trial
  sim::TargetHighDegreeConfig sconfig;
  sconfig.count = 5;
  sconfig.round_lo = 3;
  sconfig.round_hi = 10;
  sconfig.seed = 9;
  with_scenario.scenario = [sconfig] {
    return std::make_unique<sim::TargetHighDegree>(sconfig);
  };

  harness::TrialConfig manual = with_scenario;
  manual.scenario = nullptr;
  {
    const support::SeedSequence root(manual.base_seed);
    auto rng = root.child(0).child(0).generator();
    const graph::Graph shared = fixed_gnp()(rng);
    manual.sim.crash_round = sim::TargetHighDegree(sconfig).materialize_crash_rounds(shared);
  }

  const harness::TrialStats a =
      harness::run_beep_trials(fixed_gnp(), healing_protocol(), with_scenario);
  const harness::TrialStats b =
      harness::run_beep_trials(fixed_gnp(), healing_protocol(), manual);
  EXPECT_TRUE(a.scalar_fallback_reason.empty()) << a.scalar_fallback_reason;
  EXPECT_DOUBLE_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_DOUBLE_EQ(a.beeps_per_node.mean(), b.beeps_per_node.mean());
  EXPECT_DOUBLE_EQ(a.mis_size.mean(), b.mis_size.mean());
}

TEST(ScenarioHarness, AdaptiveScenarioForcesScalarWithReason) {
  harness::TrialConfig config = scenario_trial_config();
  config.scenario = [] {
    sim::TargetMisMembersConfig c;
    c.start_round = 2;
    c.budget = 4;
    return std::make_unique<sim::TargetMisMembers>(c);
  };
  const harness::TrialStats stats =
      harness::run_beep_trials(fixed_gnp(), healing_protocol(), config);
  EXPECT_NE(stats.scalar_fallback_reason.find("adaptive"), std::string::npos)
      << stats.scalar_fallback_reason;
  EXPECT_EQ(stats.trials, config.trials);
  EXPECT_EQ(stats.terminated, config.trials);
}

TEST(ScenarioHarness, ObliviousScenarioForcesScalarWithReason) {
  harness::TrialConfig config = scenario_trial_config();
  config.sim.run_until_round = 40;
  config.scenario = [] {
    sim::ChurnStreamConfig c;
    c.rate = 0.5;
    c.round_lo = 5;
    c.round_hi = 20;
    c.seed = 11;
    return std::make_unique<sim::ChurnStream>(c);
  };
  const harness::TrialStats stats =
      harness::run_beep_trials(fixed_gnp(), healing_protocol(), config);
  EXPECT_NE(stats.scalar_fallback_reason.find("dynamic events"), std::string::npos)
      << stats.scalar_fallback_reason;
}

TEST(ScenarioHarness, RecoveryTrackingForcesScalarWithReason) {
  harness::TrialConfig config = scenario_trial_config();
  config.sim.track_recovery = true;
  const harness::TrialStats stats =
      harness::run_beep_trials(fixed_gnp(), healing_protocol(), config);
  EXPECT_NE(stats.scalar_fallback_reason.find("recovery tracking"), std::string::npos)
      << stats.scalar_fallback_reason;
}

TEST(ScenarioHarness, RejectsDirectSimConfigScenario) {
  harness::TrialConfig config = scenario_trial_config();
  config.sim.scenario = std::make_shared<sim::UniformRandomCrash>(sim::UniformRandomCrashConfig{});
  EXPECT_THROW((void)harness::run_beep_trials(fixed_gnp(), healing_protocol(), config),
               std::invalid_argument);
}

TEST(ScenarioHarness, RejectsNullScenarioFactoryResult) {
  harness::TrialConfig config = scenario_trial_config();
  config.scenario = [] { return std::unique_ptr<sim::FaultScenario>(); };
  EXPECT_THROW((void)harness::run_beep_trials(fixed_gnp(), healing_protocol(), config),
               std::invalid_argument);
}

// Adaptive scenarios must never reach the batched or sharded simulators:
// both constructors reject SimConfig::scenario outright, so no routing bug
// in the harness (or any future caller) can smuggle one through.
TEST(ScenarioFastPathPin, BatchSimulatorRejectsScenarioConfig) {
  sim::SimConfig config;
  config.scenario = std::make_shared<sim::TargetMisMembers>(sim::TargetMisMembersConfig{});
  EXPECT_THROW((void)sim::BatchSimulator(config), std::logic_error);
}

TEST(ScenarioFastPathPin, ShardedSimulatorRejectsScenarioConfig) {
  sim::SimConfig config;
  config.scenario = std::make_shared<sim::StaticScheduleScenario>(std::vector<std::uint32_t>{});
  EXPECT_THROW(sim::ShardedSimulator(2, config), std::logic_error);
}

// ---------------------------------------------------------------------------
// Property: every library adversary leaves a valid MIS over the survivors
// once the self-healing protocol quiesces.

std::vector<std::shared_ptr<sim::FaultScenario>> scenario_library() {
  sim::UniformRandomCrashConfig uniform;
  uniform.fraction = 0.2;
  uniform.round_lo = 5;
  uniform.round_hi = 40;
  uniform.seed = 21;
  sim::TargetHighDegreeConfig degree;
  degree.count = 8;
  degree.round_lo = 5;
  degree.round_hi = 40;
  degree.seed = 22;
  sim::TargetBoundaryConfig boundary;
  boundary.shards = 2;
  boundary.fraction = 0.3;
  boundary.round_lo = 5;
  boundary.round_hi = 40;
  boundary.seed = 23;
  sim::TargetMisMembersConfig mis_members;
  mis_members.start_round = 2;
  mis_members.budget = 10;
  mis_members.probability = 0.8;
  mis_members.seed = 24;
  sim::ChurnStreamConfig churn;
  churn.rate = 0.8;
  churn.revive_delay_mean = 6.0;
  churn.round_lo = 5;
  churn.round_hi = 40;
  churn.seed = 25;
  sim::BudgetedAdversaryConfig budgeted;
  budgeted.budget = 8;
  budgeted.start_round = 10;
  budgeted.crashes_per_round = 2;
  return {
      std::make_shared<sim::UniformRandomCrash>(uniform),
      std::make_shared<sim::TargetHighDegree>(degree),
      std::make_shared<sim::TargetBoundary>(boundary),
      std::make_shared<sim::TargetMisMembers>(mis_members),
      std::make_shared<sim::ChurnStream>(churn),
      std::make_shared<sim::BudgetedAdversary>(budgeted),
  };
}

TEST(ScenarioProperty, EveryAdversaryYieldsValidMisAfterQuiescence) {
  const graph::Graph g = fixture_graph(55, 70, 0.12);
  for (const auto& scenario : scenario_library()) {
    for (std::uint64_t seed : {11u, 12u, 13u}) {
      sim::SimConfig config;
      config.run_until_round = 120;
      config.max_rounds = 4000;
      config.scenario = scenario->clone();
      const sim::RunResult result = run_healing(g, config, seed);
      const mis::VerificationReport report = mis::verify_mis_run(g, result);
      EXPECT_TRUE(report.valid())
          << scenario->name() << " seed " << seed << ": " << report.summary();
    }
  }
}

// ---------------------------------------------------------------------------
// ScriptedScenario fuzz: hostile event streams through the round driver.

using Steps = std::vector<sim::ScriptedScenario::Step>;

sim::RunResult run_scripted(const graph::Graph& g, Steps steps, std::uint64_t seed,
                            std::size_t run_until = 30) {
  sim::SimConfig config;
  config.run_until_round = run_until;
  config.max_rounds = 4000;
  config.scenario = std::make_shared<sim::ScriptedScenario>(std::move(steps));
  return run_healing(g, config, seed);
}

TEST(ScenarioFuzz, OutOfRangeNodeIdThrows) {
  const graph::Graph g = fixture_graph(7, 20, 0.2);
  const Steps steps = {{2, {sim::ScenarioEventKind::kCrash,
                            static_cast<graph::NodeId>(g.node_count() + 5)}}};
  EXPECT_THROW((void)run_scripted(g, steps, 1), std::invalid_argument);
}

TEST(ScenarioFuzz, RedundantEventsAreNoOps) {
  const graph::Graph g = fixture_graph(8, 30, 0.2);
  // Crash node 0 twice, revive a never-crashed node, wake an awake node:
  // all the second-order events must fizzle without corrupting fates.
  const Steps steps = {
      {2, {sim::ScenarioEventKind::kCrash, 0}},
      {4, {sim::ScenarioEventKind::kCrash, 0}},    // crash-while-crashed
      {4, {sim::ScenarioEventKind::kRevive, 1}},   // revive-while-active
      {5, {sim::ScenarioEventKind::kWake, 2}},     // wake-while-awake
  };
  const sim::RunResult result = run_scripted(g, steps, 3);
  ASSERT_TRUE(result.terminated);
  EXPECT_EQ(result.status[0], sim::NodeStatus::kCrashed);
  const mis::VerificationReport report = mis::verify_mis_run(g, result);
  EXPECT_TRUE(report.valid()) << report.summary();
  EXPECT_EQ(report.crashed, 1u);
}

TEST(ScenarioFuzz, CrashReviveCycleHealsToValidMis) {
  const graph::Graph g = fixture_graph(9, 30, 0.2);
  const Steps steps = {
      {3, {sim::ScenarioEventKind::kCrash, 5}},
      {9, {sim::ScenarioEventKind::kRevive, 5}},
      {14, {sim::ScenarioEventKind::kCrash, 5}},
      {20, {sim::ScenarioEventKind::kRevive, 5}},
  };
  const sim::RunResult result = run_scripted(g, steps, 4, 40);
  ASSERT_TRUE(result.terminated);
  EXPECT_NE(result.status[5], sim::NodeStatus::kCrashed);  // revived last
  const mis::VerificationReport report = mis::verify_mis_run(g, result);
  EXPECT_TRUE(report.valid()) << report.summary();
}

TEST(ScenarioFuzz, RandomEventStreamsNeverCorruptTheRun) {
  const graph::Graph g = fixture_graph(10, 40, 0.15);
  auto rng = support::Xoshiro256StarStar(2718);
  for (int script = 0; script < 12; ++script) {
    Steps steps;
    const std::size_t events = 5 + rng() % 40;
    for (std::size_t e = 0; e < events; ++e) {
      sim::ScriptedScenario::Step step;
      step.round = static_cast<std::uint32_t>(rng() % 30);
      step.event.node = static_cast<graph::NodeId>(rng() % g.node_count());
      switch (rng() % 3) {
        case 0: step.event.kind = sim::ScenarioEventKind::kWake; break;
        case 1: step.event.kind = sim::ScenarioEventKind::kCrash; break;
        default: step.event.kind = sim::ScenarioEventKind::kRevive; break;
      }
      steps.push_back(step);
    }
    const sim::RunResult result = run_scripted(g, std::move(steps), 100 + script, 50);
    ASSERT_TRUE(result.terminated) << "script " << script;
    const mis::VerificationReport report = mis::verify_mis_run(g, result);
    EXPECT_TRUE(report.valid()) << "script " << script << ": " << report.summary();
  }
}

}  // namespace
}  // namespace beepmis
