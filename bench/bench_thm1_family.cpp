// Empirical companion to Theorem 1: on the clique-family graph (k disjoint
// copies of K_d for every d = 1..k) any globally scheduled algorithm needs
// Ω(log² n) steps, while the local-feedback algorithm stays O(log n).
// Prints rounds for both algorithms across family sizes, growth fits, and
// the Theorem 1 potential diagnostics for the sweep schedule.
//
//   ./bench_thm1_family [--trials=50] [--threads=0] [--quick]
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "mis/schedule.hpp"
#include "mis/theory.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("trials", "50", "trials per family size");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130724", "base seed");
  options.add("quick", "false", "smaller family sizes");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_thm1_family");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_thm1_family");
    return 0;
  }

  harness::ExperimentConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  config.base_seed = options.get_u64("seed");

  std::vector<std::size_t> ks = options.get_bool("quick")
                                    ? std::vector<std::size_t>{4, 8, 12}
                                    : std::vector<std::size_t>{4, 6, 8, 10, 12, 14, 16, 20};
  if (options.get_bool("quick")) config.trials = std::min<std::size_t>(config.trials, 15);

  std::cout << "=== Theorem 1 lower-bound family: k copies of K_d, d = 1..k ===\n\n";
  const auto rows = harness::theorem1_experiment(ks, config);
  harness::print_with_csv(std::cout, harness::theorem1_table(rows));
  std::cout << harness::theorem1_fit_report(rows) << '\n';

  // Theorem 1 potential diagnostics: how many sweep steps until the
  // potential sum_i 6 d p_i e^{-d p_i} reaches (log n)/4 for the hardest d.
  std::cout << "Theorem 1 potential diagnostics (sweep schedule):\n";
  support::Table diag({"k", "n", "hardest d", "steps to reach (log2 n)/4"});
  const mis::SweepSchedule sweep;
  for (const auto& row : rows) {
    std::vector<double> prefix;
    const double target = std::log2(static_cast<double>(row.node_count)) / 4.0;
    std::size_t steps = 0;
    std::size_t hardest = 3;
    while (steps < 100000) {
      prefix.push_back(sweep.probability(steps));
      ++steps;
      hardest = mis::hardest_clique_size(prefix, row.k);
      if (mis::theorem1_potential(hardest, prefix) >= target) break;
    }
    diag.new_row().cell(row.k).cell(row.node_count).cell(hardest).cell(steps);
  }
  diag.print(std::cout);
  std::cout << "\nWhile the hardest clique's potential is below (log2 n)/4, its copies\n"
               "all survive w.h.p. (Theorem 1 proof), forcing the sweep to keep running.\n";
  return 0;
}
