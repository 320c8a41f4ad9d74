#include "cli/registry.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "mis/verifier.hpp"

namespace beepmis::cli {
namespace {

TEST(GraphRegistry, EveryListedFamilyBuilds) {
  // The "file" family is the one entry that cannot build from parameters
  // alone: it mmaps an on-disk BMCSR, so hand it one.
  const std::string bmcsr_path = ::testing::TempDir() + "registry_family_" +
                                 std::to_string(::getpid()) + ".bmcsr";
  graph::write_csr_file(graph::ring(32), bmcsr_path);

  for (const std::string& family : graph_families()) {
    GraphSpec spec;
    spec.family = family;
    spec.n = 32;
    spec.p = family == "geometric" ? 0.3 : 0.2;
    spec.rows = 5;
    spec.cols = 6;
    spec.k = 3;
    if (family == "file") spec.path = bmcsr_path;
    const graph::Graph g = make_graph(spec);
    EXPECT_GT(g.node_count(), 0u) << family;
  }
  std::remove(bmcsr_path.c_str());
}

TEST(GraphRegistry, UnknownFamilyThrows) {
  GraphSpec spec;
  spec.family = "nonsense";
  EXPECT_THROW((void)make_graph(spec), std::invalid_argument);
}

TEST(GraphRegistry, ParametersAreHonoured) {
  GraphSpec spec;
  spec.family = "grid";
  spec.rows = 4;
  spec.cols = 7;
  EXPECT_EQ(make_graph(spec).node_count(), 28u);

  spec.family = "clique-family";
  spec.k = 4;
  EXPECT_EQ(make_graph(spec).node_count(), 4u * 10u);

  spec.family = "hypercube";
  spec.n = 16;
  const graph::Graph q = make_graph(spec);
  EXPECT_EQ(q.node_count(), 16u);
  EXPECT_EQ(q.max_degree(), 4u);
}

TEST(GraphRegistry, SeedControlsRandomFamilies) {
  GraphSpec a;
  a.family = "gnp";
  a.n = 50;
  a.seed = 1;
  GraphSpec b = a;
  b.seed = 2;
  EXPECT_NE(make_graph(a).edges(), make_graph(b).edges());
  GraphSpec c = a;
  EXPECT_EQ(make_graph(a).edges(), make_graph(c).edges());
}

TEST(GraphRegistry, HelpMentionsEveryFamily) {
  const std::string help = graph_help();
  for (const std::string& family : graph_families()) {
    EXPECT_NE(help.find(family), std::string::npos) << family;
  }
}

TEST(AlgorithmRegistry, EveryAlgorithmProducesValidMis) {
  GraphSpec gspec;
  gspec.family = "gnp";
  gspec.n = 40;
  gspec.p = 0.3;
  const graph::Graph g = make_graph(gspec);
  for (const std::string& name : algorithm_names()) {
    AlgorithmSpec aspec;
    aspec.name = name;
    aspec.seed = 7;
    const sim::RunResult result = run_algorithm(aspec, g);
    EXPECT_TRUE(mis::is_valid_mis_run(g, result)) << name;
  }
}

TEST(AlgorithmRegistry, UnknownAlgorithmThrows) {
  AlgorithmSpec spec;
  spec.name = "nonsense";
  const graph::Graph g = make_graph(GraphSpec{});
  EXPECT_THROW((void)run_algorithm(spec, g), std::invalid_argument);
}

TEST(AlgorithmRegistry, LocalFeedbackKnobsApplied) {
  GraphSpec gspec;
  gspec.family = "gnp";
  gspec.n = 40;
  const graph::Graph g = make_graph(gspec);
  AlgorithmSpec a;
  a.name = "local-feedback";
  a.factor = 1.5;
  a.initial_p = 0.25;
  const sim::RunResult result = run_algorithm(a, g);
  EXPECT_TRUE(mis::is_valid_mis_run(g, result));
}

TEST(AlgorithmRegistry, SimConfigPropagates) {
  GraphSpec gspec;
  gspec.family = "path";
  gspec.n = 2;
  const graph::Graph g = make_graph(gspec);
  AlgorithmSpec a;
  a.name = "global-sweep";
  a.sim.max_rounds = 1;  // cannot finish a 2-path reliably in one round
  std::size_t not_terminated = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    a.seed = seed;
    if (!run_algorithm(a, g).terminated) ++not_terminated;
  }
  EXPECT_GT(not_terminated, 0u);
}

TEST(AlgorithmRegistry, HelpMentionsEveryAlgorithm) {
  const std::string help = algorithm_help();
  for (const std::string& name : algorithm_names()) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

TEST(AlgorithmRegistry, EveryTableEntryHasAHelpLineAndOneFactory) {
  const std::string help = algorithm_help();
  std::vector<std::string_view> seen;
  for (const Algorithm& a : algorithms()) {
    EXPECT_FALSE(a.help.empty()) << a.name;
    // The entry's line: its name, then its help text.
    const std::size_t line = help.find("\n  " + std::string(a.name) + " ");
    ASSERT_NE(line, std::string::npos) << a.name;
    EXPECT_NE(help.substr(line + 1, help.find('\n', line + 1) - line - 1).find(a.help),
              std::string::npos)
        << a.name;
    EXPECT_NE(a.beep == nullptr, a.local == nullptr) << a.name << ": exactly one factory";
    EXPECT_EQ(std::find(seen.begin(), seen.end(), a.name), seen.end()) << a.name;
    seen.push_back(a.name);
  }
  EXPECT_EQ(seen.size(), algorithm_names().size());
}

TEST(AlgorithmRegistry, FactoryKindMatchesWhatRunSweepAccepts) {
  // Both kinds sweep; only a beeping factory takes a fault scenario.
  for (const Algorithm& a : algorithms()) {
    SweepSpec spec;
    spec.graph.n = 30;
    spec.graph.p = 0.2;
    spec.algorithm.name = std::string(a.name);
    spec.trials = 3;
    spec.threads = 1;
    EXPECT_EQ(run_sweep(spec).valid, 3u) << a.name;
    spec.algorithm.scenario.name = "uniform-crash";
    spec.algorithm.scenario.round_hi = 5;
    if (a.beep != nullptr) {
      EXPECT_EQ(run_sweep(spec).trials, 3u) << a.name;
    } else {
      EXPECT_THROW((void)run_sweep(spec), std::invalid_argument) << a.name;
    }
  }
}

TEST(AlgorithmRegistry, ShardsWithoutShardSupportThrow) {
  const graph::Graph g = make_graph(GraphSpec{});
  for (const char* name : {"pure-beep", "luby"}) {
    AlgorithmSpec spec;
    spec.name = name;
    spec.shards = 2;
    EXPECT_THROW((void)run_algorithm(spec, g), std::invalid_argument) << name;
  }
}

TEST(AlgorithmRegistry, SelfHealingIsRegistered) {
  const std::vector<std::string> names = algorithm_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "self-healing"), names.end());
}

TEST(ScenarioRegistry, EveryListedScenarioBuilds) {
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec;
    spec.name = name;
    spec.round_hi = 10;
    const std::shared_ptr<sim::FaultScenario> scenario = make_scenario(spec);
    if (name == "none") {
      EXPECT_EQ(scenario, nullptr);
    } else {
      ASSERT_NE(scenario, nullptr) << name;
      EXPECT_EQ(scenario->name(), name);
    }
  }
}

TEST(ScenarioRegistry, UnknownScenarioThrows) {
  ScenarioSpec spec;
  spec.name = "nonsense";
  EXPECT_THROW((void)make_scenario(spec), std::invalid_argument);
}

TEST(ScenarioRegistry, HelpMentionsEveryScenario) {
  const std::string help = scenario_help();
  for (const std::string& name : scenario_names()) {
    if (name == "none") continue;
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
}

TEST(ScenarioRegistry, ScenarioOnLocalAlgorithmThrows) {
  const graph::Graph g = make_graph(GraphSpec{});
  AlgorithmSpec spec;
  spec.name = "luby";
  spec.scenario.name = "uniform-crash";
  spec.scenario.round_hi = 5;
  EXPECT_THROW((void)run_algorithm(spec, g), std::invalid_argument);
}

TEST(ScenarioRegistry, ScenarioWithShardsThrows) {
  const graph::Graph g = make_graph(GraphSpec{});
  AlgorithmSpec spec;
  spec.name = "local-feedback";
  spec.shards = 2;
  spec.scenario.name = "uniform-crash";
  spec.scenario.round_hi = 5;
  EXPECT_THROW((void)run_algorithm(spec, g), std::invalid_argument);
}

TEST(ScenarioRegistry, SelfHealingSurvivesAdversaryThroughCli) {
  GraphSpec gspec;
  gspec.family = "gnp";
  gspec.n = 50;
  gspec.p = 0.15;
  const graph::Graph g = make_graph(gspec);
  AlgorithmSpec spec;
  spec.name = "self-healing";
  spec.seed = 3;
  spec.sim.run_until_round = 80;
  spec.scenario.name = "target-mis";
  spec.scenario.round_lo = 2;  // armed while the MIS is still forming
  spec.scenario.budget = 6;
  spec.scenario.rate = 1.0;
  const sim::RunResult result = run_algorithm(spec, g);
  EXPECT_TRUE(mis::is_valid_mis_run(g, result));
  const mis::VerificationReport report = mis::verify_mis_run(g, result);
  EXPECT_GT(report.crashed, 0u);  // the adversary actually fired
}

TEST(Sweep, FingerprintSeparatesRequests) {
  SweepSpec a;
  a.graph.family = "gnp";
  a.graph.n = 50;
  SweepSpec b = a;
  EXPECT_EQ(sweep_fingerprint(a), sweep_fingerprint(b));
  b.graph.n = 51;
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
  b = a;
  b.algorithm.name = "pure-beep";
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
  b = a;
  b.algorithm.scenario.name = "uniform-crash";
  EXPECT_NE(sweep_fingerprint(a), sweep_fingerprint(b));
}

TEST(Sweep, RunsLocalModelAlgorithms) {
  for (const char* name : {"luby", "luby-degree", "metivier", "greedy-id"}) {
    SweepSpec spec;
    spec.graph.n = 40;
    spec.graph.p = 0.2;
    spec.algorithm.name = name;
    spec.trials = 70;  // a full 64-trial chunk plus a partial one
    spec.threads = 2;
    const harness::TrialStats stats = run_sweep(spec);
    EXPECT_EQ(stats.trials, 70u) << name;
    EXPECT_EQ(stats.valid, 70u) << name;
    EXPECT_EQ(stats.terminated, 70u) << name;
    EXPECT_GT(stats.message_bits.mean(), 0.0) << name;
  }
}

TEST(Sweep, ScenarioOnLocalSweepThrows) {
  SweepSpec spec;
  spec.graph.n = 20;
  spec.algorithm.name = "luby";
  spec.algorithm.scenario.name = "uniform-crash";
  spec.algorithm.scenario.round_hi = 5;
  spec.trials = 2;
  EXPECT_THROW((void)run_sweep(spec), std::invalid_argument);
}

TEST(Sweep, LocalRoundCapComesFromSimMaxRounds) {
  SweepSpec spec;
  spec.graph.n = 40;
  spec.graph.p = 0.2;
  spec.algorithm.name = "luby";
  spec.algorithm.sim.max_rounds = 1;
  spec.trials = 4;
  const harness::TrialStats stats = run_sweep(spec);
  EXPECT_EQ(stats.rounds.max(), 1.0);
  EXPECT_LT(stats.terminated, 4u);
}

TEST(Sweep, TrialZeroRerunMatchesAOneTrialSweep) {
  // beepmis_cli's --dot-out re-runs trial 0 from harness::trial_run_seed
  // through run_algorithm; it must be the run the sweep aggregated.
  for (const char* name : {"local-feedback", "self-healing", "luby", "metivier"}) {
    SweepSpec spec;
    spec.graph.n = 60;
    spec.graph.p = 0.1;
    spec.algorithm.name = name;
    spec.trials = 1;
    spec.base_seed = 77;
    const harness::TrialStats stats = run_sweep(spec);

    const graph::Graph g = make_graph(spec.graph);
    AlgorithmSpec trial0 = spec.algorithm;
    trial0.seed = harness::trial_run_seed(spec.base_seed, 0);
    const sim::RunResult result = run_algorithm(trial0, g);
    EXPECT_EQ(stats.rounds.mean(), static_cast<double>(result.rounds)) << name;
    EXPECT_EQ(stats.mis_size.mean(), static_cast<double>(result.mis().size())) << name;
    EXPECT_EQ(stats.beeps_per_node.mean(), result.mean_beeps_per_node()) << name;
    EXPECT_EQ(stats.message_bits.mean(), static_cast<double>(result.message_bits)) << name;
  }
}

TEST(Sweep, RunsACompleteSweep) {
  SweepSpec spec;
  spec.graph.family = "gnp";
  spec.graph.n = 30;
  spec.graph.p = 0.2;
  spec.algorithm.name = "local-feedback";
  spec.trials = 8;
  spec.threads = 2;
  const harness::TrialStats stats = run_sweep(spec);
  EXPECT_EQ(stats.trials, 8u);
  EXPECT_EQ(stats.requested_trials, 8u);
  EXPECT_EQ(stats.valid, 8u);
  EXPECT_FALSE(stats.truncated);
}

}  // namespace
}  // namespace beepmis::cli
