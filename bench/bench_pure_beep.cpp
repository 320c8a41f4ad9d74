// Model-translation ablation: local feedback ported to the *pure* beeping
// model (no sender-side collision detection) via randomised-slot
// emulation.  Sweeps the number of subslots k: correctness converges to
// the Table 1 behaviour as 2^-k collision misses vanish, at a ~k/2-fold
// beep cost.  Quantifies what the paper's (biologically justified)
// sender-CD assumption buys.
//
//   ./bench_pure_beep [--n=200] [--trials=100] [--threads=0]
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/pure_beep.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("n", "200", "graph size");
  options.add("trials", "100", "trials per subslot count");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130731", "base seed");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_pure_beep");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_pure_beep");
    return 0;
  }

  const auto n = static_cast<std::size_t>(options.get_int("n"));
  harness::TrialConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));

  const harness::GraphFactory graphs = [n](support::Xoshiro256StarStar& rng) {
    return graph::gnp(static_cast<graph::NodeId>(n), 0.5, rng);
  };

  std::cout << "=== pure beeping model (no sender CD): subslot sweep on G(" << n
            << ", 1/2), " << config.trials << " trials ===\n\n";
  support::Table table({"variant", "rounds mean", "beeps/node", "valid",
                        "indep viol/trial"});

  // Reference: the paper's sender-CD algorithm.
  config.base_seed = support::mix_seed(options.get_u64("seed"), 0);
  const harness::TrialStats reference = harness::run_beep_trials(
      graphs, [] { return std::make_unique<mis::LocalFeedbackMis>(); }, config);
  table.new_row()
      .cell("Table 1 (sender CD)")
      .cell(reference.rounds.mean())
      .cell(reference.beeps_per_node.mean())
      .cell(std::to_string(reference.valid) + "/" + std::to_string(reference.trials))
      .cell(0.0, 3);

  for (const unsigned subslots : {1u, 2u, 4u, 8u, 12u}) {
    config.base_seed = support::mix_seed(options.get_u64("seed"), subslots);
    const harness::TrialStats stats = harness::run_beep_trials(
        graphs,
        [subslots] { return std::make_unique<mis::PureBeepLocalFeedbackMis>(subslots); },
        config);
    table.new_row()
        .cell("pure beep, k = " + std::to_string(subslots))
        .cell(stats.rounds.mean())
        .cell(stats.beeps_per_node.mean())
        .cell(std::to_string(stats.valid) + "/" + std::to_string(stats.trials))
        .cell(static_cast<double>(stats.independence_violations) /
                  static_cast<double>(stats.trials),
              3);
  }
  table.print(std::cout);
  std::cout << "\ncsv:\n";
  table.write_csv(std::cout);
  std::cout << "\nexpectation: violations fall ~2^-k with subslot count while beeps/node\n"
               "rise ~k/2; rounds (paper time steps) stay O(log n) throughout.\n";
  return 0;
}
