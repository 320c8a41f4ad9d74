// Reproduces Figure 3: mean number of time steps to compute an MIS on
// G(n, 1/2) for n up to 1000, 100 trials per point, comparing the global
// sweeping schedule of Afek et al. [DISC'11] against the paper's
// local-feedback algorithm.  Reference curves: (log2 n)^2 and 2.5 log2 n.
// Also prints the E5 growth fits (global ~ log^2 n, local ~ c log n).
//
//   ./bench_fig3_rounds [--trials=100] [--threads=0] [--quick]
#include <iostream>
#include <limits>
#include <vector>

#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("trials", "100", "trials per point (paper: 100)");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130722", "base seed");
  options.add("quick", "false", "smaller n grid for a fast smoke run");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_fig3_rounds");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_fig3_rounds");
    return 0;
  }

  harness::ExperimentConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  config.base_seed = options.get_u64("seed");

  std::vector<std::size_t> ns;
  if (options.get_bool("quick")) {
    ns = {20, 50, 100, 200, 400};
    config.trials = std::min<std::size_t>(config.trials, 20);
  } else {
    ns = {20, 50, 100, 150, 200, 300, 400, 500, 600, 700, 800, 900, 1000};
  }

  std::cout << "=== Figure 3: MIS time steps on G(n, 1/2), " << config.trials
            << " trials/point ===\n\n";
  const auto rows = harness::figure3_experiment(ns, config);

  harness::print_with_csv(std::cout, harness::figure3_table(rows));
  std::cout << harness::figure3_plot(rows) << '\n';
  std::cout << harness::figure3_fit_report(rows);
  std::cout << "\npaper expectation: upper (global) series tracks (log2 n)^2;"
            << "\n                   lower (local) series tracks ~2.5 log2 n.\n";
  return 0;
}
