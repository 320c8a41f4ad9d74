// E7: Luby's algorithm vs the local-feedback beeping algorithm.  Both are
// O(log n) in rounds (the paper's point is that the beeping algorithm
// matches Luby with a drastically weaker communication model); the table
// contrasts round counts and communication volume.
//
//   ./bench_luby [--trials=50] [--threads=0] [--quick]
#include <iostream>
#include <limits>
#include <vector>

#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "support/fit.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("trials", "50", "trials per point");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130725", "base seed");
  options.add("quick", "false", "smaller n grid");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_luby");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_luby");
    return 0;
  }

  harness::ExperimentConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  config.base_seed = options.get_u64("seed");

  std::vector<std::size_t> ns = options.get_bool("quick")
                                    ? std::vector<std::size_t>{50, 100, 200}
                                    : std::vector<std::size_t>{50, 100, 200, 400, 800, 1600};
  if (options.get_bool("quick")) config.trials = std::min<std::size_t>(config.trials, 15);

  std::cout << "=== E7: Luby (LOCAL model) vs local-feedback beeping on G(n, 1/2), "
            << config.trials << " trials/point ===\n\n";
  const auto rows = harness::luby_comparison_experiment(ns, config);
  harness::print_with_csv(std::cout, harness::comparison_table(rows));

  std::vector<double> nd, luby, local;
  for (const auto& row : rows) {
    nd.push_back(static_cast<double>(row.n));
    luby.push_back(row.luby_rounds);
    local.push_back(row.local_rounds);
  }
  std::cout << "round growth fits:\n"
            << "  luby           : " << support::describe_fit(support::fit_vs_log2(nd, luby), "log2(n)")
            << '\n'
            << "  local feedback : "
            << support::describe_fit(support::fit_vs_log2(nd, local), "log2(n)") << '\n';
  std::cout << "\npaper expectation: both O(log n) rounds; the beeping algorithm uses\n"
               "one-bit messages and O(1) beeps per node, while Luby exchanges numeric\n"
               "priorities (64-bit here) every round.\n";
  return 0;
}
