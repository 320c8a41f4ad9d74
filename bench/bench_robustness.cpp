// E6: robustness ablation from the paper's conclusion — the feedback
// factor need not be exactly 2, may differ between nodes, and initial
// probabilities may vary, all without losing correctness or (much)
// performance.  Each row must stay O(log n)-ish and 100% valid.
//
//   ./bench_robustness [--n=200] [--trials=50] [--threads=0]
#include <iostream>
#include <limits>

#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "mis/theory.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("n", "200", "graph size");
  options.add("trials", "50", "trials per variant");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130726", "base seed");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_robustness");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_robustness");
    return 0;
  }

  harness::ExperimentConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  config.base_seed = options.get_u64("seed");
  const auto n = static_cast<std::size_t>(options.get_int("n"));

  std::cout << "=== E6: robustness of local feedback on G(" << n << ", 1/2), "
            << config.trials << " trials/variant ===\n\n";
  const auto rows = harness::robustness_experiment(n, config);
  harness::print_with_csv(std::cout, harness::robustness_table(rows));
  std::cout << "reference: 2.5 log2 n = " << mis::figure3_local_reference(n) << " steps\n";
  std::cout << "\npaper expectation (§6): all variants remain correct and within a\n"
               "modest constant factor of the factor-2 configuration.\n";
  return 0;
}
