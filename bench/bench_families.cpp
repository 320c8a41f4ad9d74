// E4/E7 companion: local-feedback rounds, beeps and MIS sizes across graph
// families at a fixed n — checks that the O(log n) / O(1)-beeps behaviour
// is family-independent (the theorems hold for every graph).
//
//   ./bench_families [--n=256] [--trials=50] [--threads=0]
#include <iostream>
#include <limits>

#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "mis/theory.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("n", "256", "nominal family size");
  options.add("trials", "50", "trials per family");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130728", "base seed");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_families");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_families");
    return 0;
  }

  harness::ExperimentConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  config.base_seed = options.get_u64("seed");
  const auto n = static_cast<std::size_t>(options.get_int("n"));

  std::cout << "=== local-feedback MIS across graph families (n ~ " << n << "), "
            << config.trials << " trials/family ===\n\n";
  const auto rows = harness::family_experiment(n, config);
  harness::print_with_csv(std::cout, harness::family_table(rows));
  std::cout << "reference: 2.5 log2 n = " << mis::figure3_local_reference(n)
            << " steps; Theorem 6 beep bound = " << mis::theorem6_beep_bound() << "\n";
  std::cout << "\npaper expectation: rounds stay O(log n) and beeps/node O(1) on every\n"
               "family (Theorems 2 and 6 are worst-case over all graphs).\n";
  return 0;
}
