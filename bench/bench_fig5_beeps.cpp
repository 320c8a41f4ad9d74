// Reproduces Figure 5: mean number of beeps per node on G(n, 1/2) for n up
// to 200, 200 trials per point, global sweep vs local feedback.  The paper
// reports the global series growing with n while the local series stays
// near 1.1; §5 also reports ~1.1 on rectangular grid graphs, reproduced
// here as the E4 grid series.
//
//   ./bench_fig5_beeps [--trials=200] [--threads=0] [--quick]
#include <iostream>
#include <limits>
#include <vector>

#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("trials", "200", "trials per point (paper: 200)");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130723", "base seed");
  options.add("quick", "false", "smaller grid of n values");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_fig5_beeps");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_fig5_beeps");
    return 0;
  }

  harness::ExperimentConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  config.base_seed = options.get_u64("seed");

  std::vector<std::size_t> ns;
  std::vector<std::size_t> grid_sides;
  if (options.get_bool("quick")) {
    ns = {20, 60, 120, 200};
    grid_sides = {8, 14};
    config.trials = std::min<std::size_t>(config.trials, 30);
  } else {
    ns = {10, 20, 40, 60, 80, 100, 120, 140, 160, 180, 200};
    grid_sides = {8, 12, 16, 20, 24, 28};
  }

  std::cout << "=== Figure 5: mean beeps per node on G(n, 1/2), " << config.trials
            << " trials/point ===\n\n";
  const auto rows = harness::figure5_experiment(ns, config);
  harness::print_with_csv(std::cout, harness::figure5_table(rows));
  std::cout << harness::figure5_plot(rows) << '\n';

  std::cout << "paper expectation: the global series grows with n; the local series is\n"
               "flat near 1.1 beeps per node (Theorem 6: O(1) expected beeps).\n\n";

  std::cout << "=== E4: local-feedback beeps per node on rectangular grids (paper §5: "
               "~1.1) ===\n\n";
  const auto grid_rows = harness::grid_beeps_experiment(grid_sides, config);
  harness::print_with_csv(std::cout, harness::grid_beeps_table(grid_rows));
  return 0;
}
