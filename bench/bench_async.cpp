// E9 companion (extension): asynchronous starts and fail-stop crashes.
// Staggered wake-ups break the plain protocol (a late waker cannot learn
// that a neighbour joined long ago) and the DISC'11 keep-alive rule
// repairs it; fail-stop crashes degrade coverage gracefully.
//
//   ./bench_async [--n=200] [--trials=50] [--threads=0]
#include <iostream>
#include <limits>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

struct Scenario {
  std::string label;
  std::uint32_t wake_spread = 0;  ///< wake rounds uniform in [0, spread)
  double crash_fraction = 0.0;    ///< fraction of nodes that fail-stop
  bool keepalive = false;
};

harness::TrialStats run_scenario(const Scenario& scenario, std::size_t n,
                                 const harness::TrialConfig& base) {
  harness::TrialConfig config = base;
  config.sim.mis_keepalive = scenario.keepalive;
  config.sim.max_rounds = 2000;
  // Wake and crash schedules are derived deterministically from node ids so
  // every trial of a scenario uses the same fault plan.
  config.sim.wake_round.assign(n, 0);
  config.sim.crash_round.assign(n, 0xffffffffu);
  for (std::size_t v = 0; v < n; ++v) {
    if (scenario.wake_spread > 0) {
      config.sim.wake_round[v] =
          static_cast<std::uint32_t>(support::mix_seed(9, v) % scenario.wake_spread);
    }
    if (scenario.crash_fraction > 0.0) {
      const double u = static_cast<double>(support::mix_seed(11, v) % 1000000u) / 1e6;
      if (u < scenario.crash_fraction) {
        config.sim.crash_round[v] = static_cast<std::uint32_t>(support::mix_seed(13, v) % 20);
      }
    }
  }
  const harness::GraphFactory graphs = [n](support::Xoshiro256StarStar& rng) {
    return graph::gnp(static_cast<graph::NodeId>(n), 0.5, rng);
  };
  return harness::run_beep_trials(
      graphs, [] { return std::make_unique<mis::LocalFeedbackMis>(); }, config);
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "200", "graph size");
  options.add("trials", "50", "trials per scenario");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130729", "base seed");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_async");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_async");
    return 0;
  }

  const auto n = static_cast<std::size_t>(options.get_int("n"));
  harness::TrialConfig base;
  base.trials = static_cast<std::size_t>(options.get_int("trials"));
  base.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  base.base_seed = options.get_u64("seed");

  const std::vector<Scenario> scenarios = {
      {"synchronous start", 0, 0.0, false},
      {"wake spread 16, no keepalive", 16, 0.0, false},
      {"wake spread 16, keepalive", 16, 0.0, true},
      {"wake spread 64, keepalive", 64, 0.0, true},
      {"5% crashes, keepalive", 0, 0.05, true},
      {"20% crashes, keepalive", 0, 0.20, true},
      {"wake 16 + 10% crashes, keepalive", 16, 0.10, true},
  };

  std::cout << "=== async starts and fail-stop crashes, local feedback on G(" << n
            << ", 1/2), " << base.trials << " trials/scenario ===\n\n";
  support::Table table({"scenario", "rounds mean", "valid", "indep viol/trial",
                        "uncovered/trial"});
  for (const Scenario& scenario : scenarios) {
    const harness::TrialStats stats = run_scenario(scenario, n, base);
    const auto trials = static_cast<double>(stats.trials);
    table.new_row()
        .cell(scenario.label)
        .cell(stats.rounds.mean())
        .cell(std::to_string(stats.valid) + "/" + std::to_string(stats.trials))
        .cell(static_cast<double>(stats.independence_violations) / trials, 3)
        .cell(static_cast<double>(stats.uncovered_nodes) / trials, 3);
  }
  table.print(std::cout);
  std::cout << "\ncsv:\n";
  table.write_csv(std::cout);
  std::cout << "\nexpectation: without keep-alive, staggered wake-ups cause independence\n"
               "violations; with the DISC'11 keep-alive rule every scenario without\n"
               "crashes stays 100% valid, and crashes cost only the crashed nodes'\n"
               "neighbourhoods (uncovered nodes), never independence.\n";
  return 0;
}
