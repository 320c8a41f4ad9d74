// Analysis replay: per-round evolution of the quantities in Theorem 2's
// proof — total weight µ_t(V), the maximum neighbourhood weight µ_t(Γ(v)),
// and the λ-light/λ-heavy split (λ = 7) — for single local-feedback runs
// on a dense random graph and on a large clique (the case the paper
// highlights as needing the multi-step analysis).
//
//   ./bench_dynamics [--n=500] [--seed=1]
#include <iostream>
#include <limits>

#include "graph/generators.hpp"
#include "mis/dynamics.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

void print_dynamics(const std::string& title, const mis::DynamicsRun& run) {
  std::cout << title << " (terminated in " << run.result.rounds << " rounds, MIS size "
            << run.result.mis().size() << ")\n\n";
  support::Table table({"t", "active", "mu_t(V)", "max mu(v)", "max mu(Gamma(v))",
                        "light", "heavy", "in MIS"});
  for (const mis::RoundDynamics& row : run.dynamics) {
    table.new_row()
        .cell(row.round)
        .cell(row.active)
        .cell(row.total_weight)
        .cell(row.max_weight, 4)
        .cell(row.max_neighborhood_weight)
        .cell(row.light)
        .cell(row.heavy)
        .cell(row.in_mis);
  }
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "500", "graph size");
  options.add("seed", "1", "seed for graph and run");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_dynamics");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_dynamics");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(
      options.get_u64("n", std::numeric_limits<graph::NodeId>::max()));
  const std::uint64_t seed = options.get_u64("seed");

  std::cout << "=== Theorem 2 proof dynamics (lambda = 7) ===\n\n";

  auto rng = support::Xoshiro256StarStar(seed);
  const graph::Graph dense = graph::gnp(n, 0.5, rng);
  print_dynamics("G(" + std::to_string(n) + ", 1/2)",
                 mis::run_local_feedback_with_dynamics(dense, seed));

  const graph::Graph clique = graph::complete(n);
  print_dynamics("K_" + std::to_string(n),
                 mis::run_local_feedback_with_dynamics(clique, seed));

  std::cout
      << "reading guide: on the clique every node starts heavy (mu(Gamma(v)) ~ n/4)\n"
         "and hears beeps, so weights halve until the neighbourhood weight is O(1)\n"
         "('light'); only then can a lone beeper win — the geometric collapse of\n"
         "mu_t(V) visible above is what bounds the run at O(log n) rounds.\n";
  return 0;
}
