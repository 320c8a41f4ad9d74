// MIS as a building block — the use case the paper's conclusion calls out.
// Runs the library's two MIS-powered applications on a random network:
//   * distributed (Δ+1)-ish colouring by iterated local-feedback MIS, and
//   * maximal matching as a local-feedback MIS of the line graph.
// Both computations use only one-bit beep messages end to end.
//
//   ./graph_coloring [--n=150] [--p=0.1] [--seed=5]
#include <iostream>
#include <limits>

#include "graph/generators.hpp"
#include "mis/applications.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("n", "150", "number of nodes");
  options.add("p", "0.1", "edge probability for G(n, p)");
  options.add("seed", "5", "random seed");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("graph_coloring");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("graph_coloring");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(
      options.get_u64("n", std::numeric_limits<graph::NodeId>::max()));
  const double p = options.get_double("p");
  const std::uint64_t seed = options.get_u64("seed");

  auto graph_rng = support::Xoshiro256StarStar(seed);
  const graph::Graph g = graph::gnp(n, p, graph_rng);
  std::cout << "network: " << g.describe() << " (max degree " << g.max_degree()
            << ")\n\n";

  // --- Application 1: distributed colouring by iterated MIS -------------
  const mis::ColoringResult coloring = mis::distributed_coloring(g, seed);
  const graph::Coloring greedy = graph::greedy_coloring(g);
  const bool proper = graph::is_proper_coloring(g, coloring.coloring);

  support::Table color_table({"metric", "value"});
  color_table.new_row().cell("colours (iterated beeping MIS)").cell(
      static_cast<std::size_t>(coloring.coloring.colors_used));
  color_table.new_row().cell("colours (sequential greedy)").cell(
      static_cast<std::size_t>(greedy.colors_used));
  color_table.new_row().cell("upper bound (max degree + 1)").cell(g.max_degree() + 1);
  color_table.new_row().cell("MIS phases").cell(coloring.phases);
  color_table.new_row().cell("total beeping time steps").cell(coloring.total_rounds);
  color_table.new_row().cell("total beeps").cell(
      static_cast<std::size_t>(coloring.total_beeps));
  color_table.new_row().cell("colouring proper").cell(proper ? "yes" : "NO");
  std::cout << "distributed colouring:\n";
  color_table.print(std::cout);

  // --- Application 2: maximal matching via MIS on the line graph --------
  const mis::MatchingResult matching = mis::maximal_matching(g, seed + 1);
  const bool maximal = graph::is_maximal_matching(g, matching.matching);

  support::Table match_table({"metric", "value"});
  match_table.new_row().cell("matched edges").cell(matching.matching.size());
  match_table.new_row().cell("line-graph nodes (edges of G)").cell(g.edge_count());
  match_table.new_row().cell("beeping time steps").cell(matching.rounds);
  match_table.new_row().cell("matching maximal").cell(maximal ? "yes" : "NO");
  std::cout << "\nmaximal matching (MIS on the line graph):\n";
  match_table.print(std::cout);

  std::cout << "\nfirst matched edges:";
  for (std::size_t i = 0; i < std::min<std::size_t>(8, matching.matching.size()); ++i) {
    std::cout << ' ' << matching.matching[i].u << '-' << matching.matching[i].v;
  }
  std::cout << "\n";
  return (proper && maximal) ? 0 : 1;
}
