#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/luby.hpp"

namespace beepmis::harness {
namespace {

GraphFactory small_gnp() {
  return [](support::Xoshiro256StarStar& rng) { return graph::gnp(40, 0.5, rng); };
}

BeepProtocolFactory local_feedback() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
}

TEST(Runner, RunsRequestedTrials) {
  TrialConfig config;
  config.trials = 10;
  config.threads = 2;
  const TrialStats stats = run_beep_trials(small_gnp(), local_feedback(), config);
  EXPECT_EQ(stats.trials, 10u);
  EXPECT_EQ(stats.terminated, 10u);
  EXPECT_EQ(stats.valid, 10u);
  EXPECT_EQ(stats.rounds.count(), 10u);
  EXPECT_GT(stats.rounds.mean(), 0.0);
  EXPECT_GT(stats.mis_size.mean(), 0.0);
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  TrialConfig one;
  one.trials = 12;
  one.base_seed = 777;
  one.threads = 1;
  TrialConfig many = one;
  many.threads = 8;
  const TrialStats a = run_beep_trials(small_gnp(), local_feedback(), one);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), many);
  EXPECT_DOUBLE_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_DOUBLE_EQ(a.rounds.variance(), b.rounds.variance());
  EXPECT_DOUBLE_EQ(a.beeps_per_node.mean(), b.beeps_per_node.mean());
  EXPECT_DOUBLE_EQ(a.mis_size.mean(), b.mis_size.mean());
}

TEST(Runner, DifferentSeedsGiveDifferentResults) {
  TrialConfig a_config;
  a_config.trials = 5;
  a_config.base_seed = 1;
  TrialConfig b_config = a_config;
  b_config.base_seed = 2;
  const TrialStats a = run_beep_trials(small_gnp(), local_feedback(), a_config);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), b_config);
  EXPECT_NE(a.rounds.mean(), b.rounds.mean());
}

void expect_identical_stats(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.independence_violations, b.independence_violations);
  EXPECT_EQ(a.uncovered_nodes, b.uncovered_nodes);
  const auto expect_identical = [](const support::RunningStats& x,
                                   const support::RunningStats& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_DOUBLE_EQ(x.mean(), y.mean());
    EXPECT_DOUBLE_EQ(x.variance(), y.variance());
    EXPECT_DOUBLE_EQ(x.min(), y.min());
    EXPECT_DOUBLE_EQ(x.max(), y.max());
  };
  expect_identical(a.rounds, b.rounds);
  expect_identical(a.beeps_per_node, b.beeps_per_node);
  expect_identical(a.max_beeps_any_node, b.max_beeps_any_node);
  expect_identical(a.mis_size, b.mis_size);
  expect_identical(a.message_bits, b.message_bits);
}

TEST(Runner, IdenticalStatsOneVsFourThreads) {
  // Full TrialStats identity across thread counts, under a config that
  // exercises every frontier path in the rewritten core (loss, keep-alive)
  // while each worker reuses one simulator across its trials.
  TrialConfig one;
  one.trials = 16;
  one.base_seed = 0xfeedbeef;
  one.threads = 1;
  one.sim.beep_loss_probability = 0.2;
  one.sim.mis_keepalive = true;
  one.sim.max_rounds = 500;
  TrialConfig four = one;
  four.threads = 4;
  const TrialStats a = run_beep_trials(small_gnp(), local_feedback(), one);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), four);
  expect_identical_stats(a, b);
}

TEST(Runner, IdenticalLocalStatsOneVsFourThreads) {
  TrialConfig one;
  one.trials = 12;
  one.base_seed = 31337;
  one.threads = 1;
  TrialConfig four = one;
  four.threads = 4;
  const LocalProtocolFactory luby = [] { return std::make_unique<mis::LubyMis>(); };
  const TrialStats a = run_local_trials(small_gnp(), luby, one);
  const TrialStats b = run_local_trials(small_gnp(), luby, four);
  expect_identical_stats(a, b);
}

TEST(Runner, SharedGraphReusesOneGraph) {
  // With shared_graph, MIS sizes on a clique are 1 in every trial.
  TrialConfig config;
  config.trials = 8;
  config.shared_graph = true;
  const GraphFactory clique = [](support::Xoshiro256StarStar&) {
    return graph::complete(15);
  };
  const TrialStats stats = run_beep_trials(clique, local_feedback(), config);
  EXPECT_DOUBLE_EQ(stats.mis_size.mean(), 1.0);
  EXPECT_DOUBLE_EQ(stats.mis_size.stddev(), 0.0);
}

TEST(Runner, LocalModelTrialsCollectMessageBits) {
  TrialConfig config;
  config.trials = 6;
  const LocalProtocolFactory luby = [] { return std::make_unique<mis::LubyMis>(); };
  const TrialStats stats = run_local_trials(small_gnp(), luby, config);
  EXPECT_EQ(stats.trials, 6u);
  EXPECT_EQ(stats.valid, 6u);
  EXPECT_GT(stats.message_bits.mean(), 0.0);
}

TEST(Runner, FaultySimConfigPropagates) {
  TrialConfig config;
  config.trials = 5;
  config.sim.beep_loss_probability = 0.4;
  config.sim.max_rounds = 300;
  const TrialStats stats = run_beep_trials(small_gnp(), local_feedback(), config);
  EXPECT_EQ(stats.trials, 5u);
  // With heavy loss at least the counters must be self-consistent.
  EXPECT_LE(stats.valid, stats.trials);
}

TEST(Runner, SingleTrialWorks) {
  TrialConfig config;
  config.trials = 1;
  const TrialStats stats = run_beep_trials(small_gnp(), local_feedback(), config);
  EXPECT_EQ(stats.trials, 1u);
  EXPECT_EQ(stats.rounds.count(), 1u);
}

TEST(Runner, LossyTailStatsUnchangedByHeuristic) {
  // The routing heuristic moves lossy tail-dominated sweeps off the
  // batched path; stats must equal the per-trial scalar loop exactly (they
  // always did — this pins that the heuristic changes the route, never
  // the result).  The reference runs the same fixed graph with
  // shared_graph = false, which routes every trial through the scalar
  // per-trial loop; trial t's run seed does not depend on shared_graph.
  auto graph_rng = support::Xoshiro256StarStar(0xfade);
  const graph::Graph g = graph::gnp(50, 0.05, graph_rng);
  const GraphFactory fixed = [&g](support::Xoshiro256StarStar&) { return g; };
  TrialConfig config;
  config.trials = 70;
  config.base_seed = 0xfade;
  config.threads = 1;
  config.shared_graph = true;
  config.sim.beep_loss_probability = 0.1;
  config.sim.mis_keepalive = true;
  config.sim.run_until_round = 16;
  config.sim.max_rounds = 400;
  TrialConfig scalar = config;
  scalar.shared_graph = false;

  const TrialStats a = run_beep_trials(fixed, local_feedback(), config);
  const TrialStats b = run_beep_trials(fixed, local_feedback(), scalar);
  expect_identical_stats(a, b);
}

// --- plan_execution: the routing table ------------------------------------
// The source of truth for which engine a beeping sweep runs on
// (src/sim/README.md, "Routing").  Each row is a config, the node count of
// trial 0's graph, the protocol probe and the live scenario, and the plan
// they must produce.

TrialConfig shared_sweep() {
  TrialConfig config;
  config.trials = 256;
  config.threads = 4;
  config.shared_graph = true;
  return config;
}

template <typename Tweak>
TrialConfig sweep_with(Tweak tweak) {
  TrialConfig config = shared_sweep();
  tweak(config);
  return config;
}

void lossy_tail(TrialConfig& c) {
  c.sim.beep_loss_probability = 0.1;
  c.sim.mis_keepalive = true;
  c.sim.run_until_round = 100;
}

TEST(PlanExecution, RoutingTable) {
  using enum ExecutionPath;
  constexpr std::size_t kBig = kAutoShardMinNodes;
  constexpr std::size_t kSmall = 1000;
  const ProtocolProbe full{true, true};
  const ProtocolProbe no_shard_support{false, true};
  const ProtocolProbe no_batch_kernel{true, false};
  const ProtocolProbe neither{false, false};
  const LiveScenario adaptive{sim::ScenarioKind::kAdaptive, "target-mis"};
  const LiveScenario churn{sim::ScenarioKind::kObliviousStream, "churn"};
  const LiveScenario static_live{sim::ScenarioKind::kStaticSchedule, "uniform-crash"};
  const std::string ignored_shards =
      "shards=3 requested but the protocol has no sharded support: runs unsharded";

  struct Row {
    const char* name;
    TrialConfig config;
    std::size_t nodes;
    ProtocolProbe protocol;
    const LiveScenario* scenario;
    ExecutionPlan expected;
  };
  const Row rows[] = {
      {"default shared sweep", shared_sweep(), kSmall, full, nullptr, {kBatched, 1, 4, ""}},
      {"lossy tail", sweep_with(lossy_tail), kSmall, full, nullptr, {kScalar, 1, 4, ""}},
      {"per-trial graphs", sweep_with([](TrialConfig& c) { c.shared_graph = false; }), 0, full,
       nullptr, {kScalar, 1, 4, ""}},
      {"record_trace", sweep_with([](TrialConfig& c) { c.sim.record_trace = true; }), kSmall,
       full, nullptr, {kScalar, 1, 4, ""}},
      {"no trials", sweep_with([](TrialConfig& c) { c.trials = 0; }), kSmall, full, nullptr,
       {kScalar, 1, 4, ""}},
      {"many trials, auto, above the threshold", shared_sweep(), kBig, full, nullptr,
       {kBatched, 1, 4, ""}},
      {"one trial, auto, above the threshold",
       sweep_with([](TrialConfig& c) { c.trials = 1; }), kBig, full, nullptr,
       {kSharded, 4, 1, ""}},
      {"one trial, auto, K clamped to 256",
       sweep_with([](TrialConfig& c) {
         c.trials = 1;
         c.threads = 300;
       }),
       kBig, full, nullptr, {kSharded, 256, 1, ""}},
      {"one trial, auto, below the threshold",
       sweep_with([](TrialConfig& c) { c.trials = 1; }), kBig - 1, full, nullptr,
       {kScalar, 1, 4, ""}},
      {"one trial, per-trial graph, above the threshold",
       sweep_with([](TrialConfig& c) {
         c.trials = 1;
         c.shared_graph = false;
       }),
       kBig, full, nullptr, {kSharded, 4, 1, ""}},
      {"one trial on one thread", sweep_with([](TrialConfig& c) {
         c.trials = 1;
         c.threads = 1;
       }),
       kBig, full, nullptr, {kBatched, 1, 1, ""}},
      {"explicit shards", sweep_with([](TrialConfig& c) { c.shards = 3; }), kSmall, full,
       nullptr, {kSharded, 3, 1, ""}},
      {"explicit shards, one batch",
       sweep_with([](TrialConfig& c) {
         c.shards = 3;
         c.trials = 64;
       }),
       kSmall, full, nullptr, {kSharded, 3, 1, ""}},
      {"shards = 1", sweep_with([](TrialConfig& c) { c.shards = 1; }), kBig, full, nullptr,
       {kBatched, 1, 4, ""}},
      {"no shard support, explicit shards", sweep_with([](TrialConfig& c) { c.shards = 3; }),
       kSmall, no_shard_support, nullptr, {kBatched, 1, 4, ignored_shards}},
      {"no shard support, no batch kernel, explicit shards",
       sweep_with([](TrialConfig& c) { c.shards = 3; }), kSmall, neither, nullptr,
       {kScalar, 1, 4, ignored_shards}},
      {"no shard support, auto", shared_sweep(), kBig, no_shard_support, nullptr,
       {kBatched, 1, 4, ""}},
      {"no batch kernel", shared_sweep(), kSmall, no_batch_kernel, nullptr,
       {kScalar, 1, 4, ""}},
      {"adaptive scenario", shared_sweep(), kSmall, full, &adaptive,
       {kScalar, 1, 4,
        "scenario 'target-mis' is adaptive (observes live run state): batched/sharded fast "
        "paths refused, scalar simulator only"}},
      {"churn scenario", shared_sweep(), kSmall, full, &churn,
       {kScalar, 1, 4,
        "scenario 'churn' emits dynamic events (revives/churn): scalar simulator only"}},
      {"static scenario left live", sweep_with([](TrialConfig& c) { c.shared_graph = false; }),
       0, full, &static_live,
       {kScalar, 1, 4,
        "scenario 'uniform-crash' runs live on the scalar simulator (materialising needs "
        "shared_graph and an empty crash_round)"}},
      {"recovery tracking", sweep_with([](TrialConfig& c) { c.sim.track_recovery = true; }),
       kSmall, full, nullptr,
       {kScalar, 1, 4, "recovery tracking is scalar-only: batched/sharded fast paths refused"}},
      {"materialised static scenario",
       sweep_with([](TrialConfig& c) { c.sim.crash_round.assign(kSmall, 5); }), kSmall, full,
       nullptr, {kBatched, 1, 4, ""}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const ExecutionPlan plan = plan_execution(row.config, row.nodes, row.protocol, row.scenario);
    EXPECT_EQ(plan.path, row.expected.path);
    EXPECT_EQ(plan.shards, row.expected.shards);
    EXPECT_EQ(plan.workers, row.expected.workers);
    EXPECT_EQ(plan.reason, row.expected.reason);
  }
}

TEST(TrialStats, MergeAccumulates) {
  TrialConfig config;
  config.trials = 4;
  TrialStats a = run_beep_trials(small_gnp(), local_feedback(), config);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), config);
  const std::size_t before = a.trials;
  a.merge(b);
  EXPECT_EQ(a.trials, before + b.trials);
  EXPECT_EQ(a.rounds.count(), 8u);
}

}  // namespace
}  // namespace beepmis::harness
