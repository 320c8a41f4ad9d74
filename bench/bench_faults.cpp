// E9 (extension): beep-loss fault injection for the local-feedback
// algorithm.  The paper's correctness argument assumes reliable beeps;
// this bench quantifies degradation when each beep delivery is dropped
// independently with probability `loss`.
//
// With --scenario=<name> the sweep additionally subjects every loss level
// to a crash adversary (sim/scenario.hpp) on the self-healing protocol,
// reporting recovery-time SLA quantiles instead of the plain columns.
//
//   ./bench_faults [--n=200] [--trials=50] [--threads=0]
//   ./bench_faults --scenario=target-mis --scenario-budget=16
#include <iostream>
#include <limits>
#include <vector>

#include "cli/registry.hpp"
#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("n", "200", "graph size");
  options.add("trials", "50", "trials per loss level");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("seed", "20130727", "base seed");
  options.add("scenario", "none", "crash adversary layered on the loss sweep");
  options.add("scenario-rate", "0.05", "scenario crash fraction / rate / probability");
  options.add("scenario-lo", "5", "scenario crash-window start round");
  options.add("scenario-hi", "25", "scenario crash-window end round");
  options.add("scenario-budget", "16", "scenario crash budget / target count");
  options.add("scenario-seed", "1", "scenario rng seed");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_faults");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_faults") << '\n' << cli::scenario_help();
    return 0;
  }

  harness::ExperimentConfig config;
  config.trials = static_cast<std::size_t>(options.get_int("trials"));
  config.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  config.base_seed = options.get_u64("seed");
  const auto n = static_cast<std::size_t>(options.get_int("n"));

  const std::vector<double> losses{0.0, 0.001, 0.01, 0.05, 0.1, 0.2};

  cli::ScenarioSpec sspec;
  sspec.name = options.get("scenario");
  sspec.rate = options.get_double("scenario-rate");
  sspec.round_lo = static_cast<std::uint32_t>(
      options.get_u64("scenario-lo", std::numeric_limits<std::uint32_t>::max()));
  sspec.round_hi = static_cast<std::uint32_t>(
      options.get_u64("scenario-hi", std::numeric_limits<std::uint32_t>::max()));
  sspec.budget = static_cast<std::size_t>(options.get_int("scenario-budget"));
  sspec.seed = options.get_u64("scenario-seed");

  if (sspec.name != "none") {
    const auto prototype = cli::make_scenario(sspec);
    const harness::FaultScenarioFactory scenario = [prototype] {
      return prototype->clone();
    };
    std::cout << "=== E9 + adversary '" << sspec.name
              << "': self-healing under beep loss, G(" << n << ", 1/2), "
              << config.trials << " trials/level (maintenance tail 150) ===\n\n";
    const auto rows = harness::fault_scenario_experiment(n, losses, scenario, config);
    harness::print_with_csv(std::cout, harness::fault_recovery_table(rows));
    std::cout << "notes: a disruption opens when a crash or revive perturbs the MIS\n"
                 "and closes at the first quiescent valid state; 'rec pXX' are\n"
                 "quantiles over all per-disruption recovery times (rounds).\n";
    return 0;
  }

  std::cout << "=== E9: local feedback under beep loss, G(" << n << ", 1/2), "
            << config.trials << " trials/level (round cap 2000) ===\n\n";
  const auto rows = harness::fault_experiment(n, losses, config);
  harness::print_with_csv(std::cout, harness::fault_table(rows));
  std::cout << "notes: 'valid' requires termination plus a perfect MIS;\n"
               "independence violations arise when two adjacent winners both miss\n"
               "each other's intent beep; uncovered nodes miss a join announcement.\n";
  return 0;
}
