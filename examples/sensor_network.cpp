// Sensor-network clustering: the paper's conclusion motivates beeping MIS
// for ad hoc sensor networks — nodes with no ids, no global knowledge and
// one-bit radios.  This example deploys sensors uniformly in the unit
// square, connects nodes within radio range, elects cluster heads with the
// local-feedback MIS, and draws the result as an ASCII map.
//
//   ./sensor_network [--sensors=120] [--radius=0.18] [--seed=7] [--compare]
//
// Every election here goes through cli::run_algorithm on a declarative
// cli::AlgorithmSpec — the same registry entrypoint beepmis_cli and the
// beepmisd sweep service use — so the example exercises the public API
// rather than private simulator plumbing: sharded elections set
// spec.shards, the wall-clock budget sets spec.budget_seconds (falling
// back to the deterministic greedy-id election on expiry), and churn is
// the registered self-healing algorithm under a uniform-crash scenario.
#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/registry.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "mis/verifier.hpp"
#include "sim/beep.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

/// Draws sensors on a character grid: '#' = cluster head, 'o' = member.
std::string ascii_map(const graph::GeometricGraph& field,
                      const std::vector<graph::NodeId>& heads, std::size_t size) {
  std::vector<std::string> canvas(size, std::string(2 * size, ' '));
  std::vector<bool> is_head(field.graph.node_count(), false);
  for (const graph::NodeId v : heads) is_head[v] = true;
  for (graph::NodeId v = 0; v < field.graph.node_count(); ++v) {
    const auto row = static_cast<std::size_t>(field.y[v] * static_cast<double>(size - 1));
    const auto col =
        static_cast<std::size_t>(field.x[v] * static_cast<double>(2 * size - 1));
    canvas[row][col] = is_head[v] ? '#' : 'o';
  }
  std::string out;
  for (const auto& line : canvas) {
    out += '|';
    out += line;
    out += "|\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("sensors", "120", "number of sensors");
  options.add("radius", "0.18", "radio range (unit square)");
  options.add("seed", "7", "random seed");
  options.add("compare", "false", "also run Luby's algorithm and compare cost");
  options.add("shards", "1",
              "elect heads across this many CSR shards / worker threads "
              "(bit-identical to the single-threaded election)");
  options.add("churn", "false",
              "crash ~20% of sensors mid-run and re-elect heads via self-healing");
  options.add("budget", "0",
              "wall-clock budget in seconds for the head election (0 = unlimited); "
              "on expiry fall back to the deterministic greedy election");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("sensor_network");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("sensor_network");
    return 0;
  }

  graph::NodeId sensors = 0;
  double radius = 0.0;
  std::uint64_t seed = 0;
  unsigned shards = 0;
  double budget_seconds = 0.0;
  try {
    sensors = static_cast<graph::NodeId>(
        options.get_u64("sensors", std::numeric_limits<graph::NodeId>::max()));
    radius = options.get_double("radius");
    seed = options.get_u64("seed");
    shards = static_cast<unsigned>(options.get_u64("shards", std::numeric_limits<unsigned>::max()));
    budget_seconds = options.get_double("budget");
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << '\n' << options.usage("sensor_network");
    return 1;
  }

  auto rng = support::Xoshiro256StarStar(seed);
  const graph::GeometricGraph field = graph::random_geometric(sensors, radius, rng);
  const graph::Graph& g = field.graph;
  std::cout << "deployed " << sensors << " sensors, radio range " << radius << ": "
            << g.describe() << "\n";
  const graph::Components comps = graph::connected_components(g);
  std::cout << "network has " << comps.count << " connected component(s)\n\n";

  // --shards >= 2 elects through the sharded simulator (one worker thread
  // per CSR shard); the sharded core draws in scalar order, so the elected
  // heads — and everything printed below — are identical either way.
  cli::AlgorithmSpec election;
  election.name = "local-feedback";
  election.seed = seed;
  election.shards = shards;
  election.budget_seconds = budget_seconds;

  sim::RunResult result;
  bool exact_election = true;
  try {
    result = cli::run_algorithm(election, g);
    if (shards >= 2) std::cout << "election ran on " << shards << " CSR shards\n";
  } catch (const sim::RunCancelled& e) {
    // Budget-bounded election: run_algorithm arms the simulator's deadline
    // from spec.budget_seconds and the simulator cancels at the first round
    // boundary past it; the fallback is the deterministic greedy election —
    // exact if affordable, honest approximation otherwise.
    std::cout << "election budget expired (" << e.what()
              << "); falling back to the deterministic greedy election\n";
    cli::AlgorithmSpec fallback;
    fallback.name = "greedy-id";
    fallback.seed = seed;
    result = cli::run_algorithm(fallback, g);
    exact_election = false;
  }
  const mis::VerificationReport report = mis::verify_mis_run(g, result);
  const auto heads = result.mis();

  std::cout << "cluster-head election ("
            << (exact_election ? "local-feedback beeping MIS"
                               : "greedy-id fallback, budget expired")
            << "):\n"
            << "  time steps: " << result.rounds << "\n"
            << "  beeps per node: " << result.mean_beeps_per_node()
            << " (1-bit radio messages)\n"
            << "  cluster heads: " << heads.size() << "\n"
            << "  every sensor is a head or hears a head: "
            << (report.valid() ? "yes" : "NO") << "\n\n";

  std::cout << ascii_map(field, heads, 24) << "\n  '#' = cluster head, 'o' = member\n\n";

  if (options.get_bool("churn")) {
    // Battery failures: the registered uniform-crash adversary kills each
    // sensor w.p. 0.2 in rounds 20-30 while the self-healing variant
    // re-elects heads in orphaned clusters.
    cli::AlgorithmSpec healing;
    healing.name = "self-healing";
    healing.seed = seed;
    healing.sim.run_until_round = 100;
    healing.scenario.name = "uniform-crash";
    healing.scenario.rate = 0.2;
    healing.scenario.round_lo = 20;
    healing.scenario.round_hi = 30;
    healing.scenario.seed = seed;
    const sim::RunResult after = cli::run_algorithm(healing, g);
    const mis::VerificationReport after_report = mis::verify_mis_run(g, after);

    std::cout << "after battery failures (~20% of sensors died, self-healing on):\n"
              << "  surviving sensors covered: " << (after_report.valid() ? "yes" : "NO")
              << " (" << after_report.summary() << ")\n\n"
              << ascii_map(field, after.mis(), 24)
              << "\n  '#' = cluster head after churn ('o' includes dead sensors)\n\n";
  }

  if (options.get_bool("compare")) {
    cli::AlgorithmSpec luby_spec;
    luby_spec.name = "luby";
    luby_spec.seed = seed;
    const sim::RunResult luby = cli::run_algorithm(luby_spec, g);
    support::Table table({"algorithm", "rounds", "communication"});
    table.new_row()
        .cell("local-feedback beeps")
        .cell(result.rounds)
        .cell(std::to_string(result.total_beeps) + " one-bit beeps");
    table.new_row()
        .cell("luby (LOCAL model)")
        .cell(luby.rounds)
        .cell(std::to_string(luby.message_bits) + " message bits");
    table.print(std::cout);
    std::cout << "\nLuby needs numeric messages; the beeping algorithm reaches the same\n"
                 "round complexity with single-bit signals (paper Theorems 2 and 6).\n";
  }
  return report.valid() ? 0 : 1;
}
