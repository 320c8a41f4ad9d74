// Quickstart: select a maximal independent set on a random network with the
// paper's local-feedback beeping algorithm and inspect the result.
//
//   ./quickstart [--n=200] [--p=0.5] [--seed=1] [--dot]
#include <iostream>
#include <limits>

#include "graph/io.hpp"
#include "mis/mis.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("n", "200", "number of nodes");
  options.add("p", "0.5", "edge probability for G(n, p)");
  options.add("seed", "1", "random seed (graph and algorithm)");
  options.add("dot", "false", "print the graph as Graphviz DOT with the MIS highlighted");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("quickstart");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("quickstart");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(
      options.get_u64("n", std::numeric_limits<graph::NodeId>::max()));
  const double p = options.get_double("p");
  const std::uint64_t seed = options.get_u64("seed");

  // 1. Build a random network.
  auto graph_rng = support::Xoshiro256StarStar(seed);
  const graph::Graph g = graph::gnp(n, p, graph_rng);
  std::cout << "network: " << g.describe() << ", max degree " << g.max_degree() << "\n";

  // 2. Run the local-feedback beeping MIS (Definition 1 of the paper).
  const sim::RunResult result = mis::run_local_feedback(g, seed);

  // 3. Inspect and verify.
  const mis::VerificationReport report = mis::verify_mis_run(g, result);
  std::cout << "algorithm: local-feedback beeping MIS\n"
            << "time steps: " << result.rounds << "  (2.5*log2 n = "
            << mis::figure3_local_reference(n) << ")\n"
            << "mean beeps per node: " << result.mean_beeps_per_node() << "\n"
            << "MIS size: " << report.mis_size << "\n"
            << "verification: " << report.summary() << "\n";

  std::cout << "MIS members:";
  for (const graph::NodeId v : result.mis()) std::cout << ' ' << v;
  std::cout << '\n';

  if (options.get_bool("dot")) {
    const auto selected = result.mis();
    graph::write_dot(std::cout, g, selected);
  }
  return report.valid() ? 0 : 1;
}
