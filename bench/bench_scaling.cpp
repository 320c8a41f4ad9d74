// Scale extension: the paper's experiments stop at n = 1000; Theorem 2
// promises O(log n) on every graph, so this bench pushes the local-feedback
// algorithm to million-node sparse networks (average degree ~10, the ad hoc
// sensor-network regime of §6) and checks the logarithmic trend continues.
//
//   ./bench_scaling [--max-exp=6] [--trials=5] [--threads=0]
#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "support/fit.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("max-exp", "6", "largest n = 10^max-exp (<= 7)");
  options.add("trials", "5", "trials per size");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130730", "base seed");
  options.add("avg-degree", "10", "average degree of the sparse G(n, p)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_scaling");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_scaling");
    return 0;
  }

  const long max_exp = std::min(7L, options.get_int("max-exp"));
  const double avg_degree = options.get_double("avg-degree");
  harness::TrialConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));

  std::cout << "=== scaling: local feedback on sparse G(n, " << avg_degree
            << "/n), " << config.trials << " trials/point ===\n\n";

  std::vector<double> ns, means;
  support::Table table({"n", "rounds mean", "sd", "beeps/node", "2.5 log2 n", "valid"});
  for (long exp = 2; exp <= max_exp; ++exp) {
    const auto n = static_cast<std::size_t>(std::pow(10.0, exp));
    config.base_seed = support::mix_seed(options.get_u64("seed"), n);
    const harness::GraphFactory graphs = [n, avg_degree](support::Xoshiro256StarStar& rng) {
      return graph::gnp(static_cast<graph::NodeId>(n),
                        avg_degree / static_cast<double>(n), rng);
    };
    const harness::TrialStats stats = harness::run_beep_trials(
        graphs, [] { return std::make_unique<mis::LocalFeedbackMis>(); }, config);

    table.new_row()
        .cell(n)
        .cell(stats.rounds.mean())
        .cell(stats.rounds.stddev())
        .cell(stats.beeps_per_node.mean())
        .cell(2.5 * std::log2(static_cast<double>(n)))
        .cell(std::to_string(stats.valid) + "/" + std::to_string(stats.trials));
    ns.push_back(static_cast<double>(n));
    means.push_back(stats.rounds.mean());
  }
  table.print(std::cout);
  std::cout << "\ncsv:\n";
  table.write_csv(std::cout);

  const support::LinearFit fit = support::fit_vs_log2(ns, means);
  std::cout << '\n' << support::describe_fit(fit, "log2(n)") << '\n'
            << "Theorem 2: the slope should stay a small constant all the way to n = 10^"
            << max_exp << ".\n";
  return 0;
}
