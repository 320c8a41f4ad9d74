// Fault-scenario SLA benchmark: one adversarial row per protocol, run
// through the trial harness (which routes every scenario+recovery workload
// to the scalar simulator — the wall_ms column prices that fallback), with
// recovery-time quantiles as the distribution-level evidence.
//
// Row set:
//   self-healing    x uniform-crash   the non-adversarial baseline
//   self-healing    x target-mis      adaptive: kill fresh MIS members
//   self-healing    x budgeted        adaptive: greedy worst-case kills
//   self-healing    x churn           Poisson crash+revive stream
//   local-feedback  x target-mis      no healing rule: SLA never met
//   global-sweep    x target-degree   static hub kills
//   lf-exact        x target-boundary static partition-boundary kills
//
// The uniform-crash baseline is budget-matched to target-mis (same expected
// crash count), so the recovery_p99 gap between the two rows isolates what
// *adaptivity* costs the protocol, not merely more crashes.
//
// Contributes the "faults" section of BENCH_core.json (scripts/bench_core.sh).
//
//   ./bench_scenarios [--n=1000] [--avg-degree=8] [--trials=24]
//                     [--tail-rounds=160] [--reps=2] [--seed=2026]
//                     [--threads=0] [--git-rev=<rev>] [--out=BENCH_scenarios.json]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/self_healing.hpp"
#include "sim/scenario.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

struct Case {
  std::string protocol;
  std::string scenario;
  harness::BeepProtocolFactory protocols;
  harness::FaultScenarioFactory scenarios;
};

struct Measurement {
  std::string protocol;
  std::string scenario;
  std::size_t trials = 0;
  std::size_t valid = 0;
  std::size_t disruptions = 0;
  std::size_t recovered = 0;
  std::size_t unrecovered = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double mean_rounds = 0;
  double wall_ms = 0;
};

harness::BeepProtocolFactory protocol_factory(const std::string& name) {
  if (name == "self-healing") {
    return [] { return std::make_unique<mis::SelfHealingLocalFeedbackMis>(); };
  }
  if (name == "local-feedback") {
    return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
  }
  if (name == "global-sweep") {
    return [] {
      return std::make_unique<mis::GlobalScheduleMis>(mis::make_global_sweep_mis());
    };
  }
  return [] { return std::make_unique<mis::ExactLocalFeedbackMis>(); };
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "1000", "nodes in the sparse G(n, d/n) instance");
  options.add("avg-degree", "8", "average degree");
  options.add("trials", "24", "trials per (protocol, scenario) row");
  options.add("tail-rounds", "160", "maintenance tail (run_until_round)");
  options.add("reps", "2", "timing repetitions (best-of)");
  options.add("seed", "2026", "base seed");
  options.add("threads", "0", "worker threads (0 = all cores)");
  options.add("git-rev", "unknown", "git revision recorded in the JSON header");
  options.add("out", "BENCH_scenarios.json", "JSON report path ('-' = stdout only)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_scenarios");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_scenarios");
    return 0;
  }

  const auto n = static_cast<std::size_t>(options.get_int("n"));
  const double avg_degree = options.get_double("avg-degree");
  const auto trials = static_cast<std::size_t>(options.get_int("trials"));
  const auto tail = static_cast<std::size_t>(options.get_int("tail-rounds"));
  const int reps = static_cast<int>(options.get_u64("reps", std::numeric_limits<int>::max()));
  const std::uint64_t seed = options.get_u64("seed");

  // Crash budget shared by the budget-matched rows.  The static windows sit
  // well past the formation phase (convergence takes ~log n rounds; 3/8 of
  // the tail clears it at every size measured here) so the baseline's
  // recovery samples measure *healing* of isolated post-formation crashes,
  // not the tail of initial convergence — overlapping formation inflates
  // uniform-crash recovery times and buries the adaptive-vs-random signal.
  // The windows still end at 3/4 of the tail so recovery can finish before
  // the run ends.
  const std::size_t budget = std::max<std::size_t>(8, n / 64);
  // target-mis preys on *fresh* joiners, so it must be armed while the MIS
  // is still forming — from the natural-convergence window, not the tail.
  const std::uint32_t adaptive_start = 2;
  const auto lo = static_cast<std::uint32_t>(std::max<std::size_t>(5, 3 * tail / 8));
  const auto hi = static_cast<std::uint32_t>(std::max<std::size_t>(lo + 8, 3 * tail / 4));
  const auto churn_hi = hi;
  // The baseline burst-crashes its whole budget inside 8 rounds, mirroring
  // the shape of the adaptive mass-kill: recovery samples close at global
  // quiescence, so a schedule dribbled across the tail would measure the
  // arrival stream's lulls instead of healing — with matched budget AND
  // window, victim *choice* is the only variable separating the rows.
  const auto uniform_hi = static_cast<std::uint32_t>(lo + 7);
  const double uniform_fraction =
      static_cast<double>(budget) / static_cast<double>(n);

  const std::vector<Case> cases = {
      {"self-healing", "uniform-crash", protocol_factory("self-healing"),
       [=] {
         return std::make_unique<sim::UniformRandomCrash>(
             sim::UniformRandomCrashConfig{uniform_fraction, lo, uniform_hi, seed + 1});
       }},
      {"self-healing", "target-mis", protocol_factory("self-healing"),
       [=] {
         return std::make_unique<sim::TargetMisMembers>(
             sim::TargetMisMembersConfig{adaptive_start, budget, 1.0, seed + 2});
       }},
      {"self-healing", "budgeted", protocol_factory("self-healing"),
       [=] {
         // Pace the greedy adversary so its whole budget is spent within a
         // quarter of the tail — an attack that outlives the run would
         // measure truncation, not recovery.
         const auto per_round =
             static_cast<unsigned>(std::max<std::size_t>(1, 4 * budget / tail));
         return std::make_unique<sim::BudgetedAdversary>(
             sim::BudgetedAdversaryConfig{budget, lo, per_round});
       }},
      {"self-healing", "churn", protocol_factory("self-healing"),
       [=] {
         return std::make_unique<sim::ChurnStream>(
             sim::ChurnStreamConfig{1.0, 8.0, lo, churn_hi, seed + 3});
       }},
      {"local-feedback", "target-mis", protocol_factory("local-feedback"),
       [=] {
         return std::make_unique<sim::TargetMisMembers>(
             sim::TargetMisMembersConfig{adaptive_start, budget, 1.0, seed + 2});
       }},
      {"global-sweep", "target-degree", protocol_factory("global-sweep"),
       [=] {
         return std::make_unique<sim::TargetHighDegree>(
             sim::TargetHighDegreeConfig{budget, lo, hi, seed + 4});
       }},
      {"local-feedback-exact", "target-boundary", protocol_factory("local-feedback-exact"),
       [=] {
         return std::make_unique<sim::TargetBoundary>(
             sim::TargetBoundaryConfig{2, 0.25, lo, hi, seed + 5});
       }},
  };

  harness::TrialConfig base;
  base.trials = trials;
  base.base_seed = seed;
  base.threads = static_cast<unsigned>(
      options.get_u64("threads", std::numeric_limits<unsigned>::max()));
  base.shared_graph = true;
  base.sim.mis_keepalive = true;
  base.sim.run_until_round = tail;
  base.sim.max_rounds = std::max<std::size_t>(800, 4 * tail);
  base.sim.track_recovery = true;

  const harness::GraphFactory graphs = [n, avg_degree](support::Xoshiro256StarStar& rng) {
    return graph::gnp(static_cast<graph::NodeId>(n),
                      avg_degree / static_cast<double>(n), rng);
  };

  std::cout << "=== recovery SLAs under fault scenarios, sparse G(" << n << ", "
            << avg_degree << "/n), " << trials << " trials/row, tail " << tail
            << " rounds ===\n\n";

  std::vector<Measurement> results;
  support::Table table({"protocol", "scenario", "valid", "disruptions", "unrecovered",
                        "rec p50", "rec p95", "rec p99", "wall ms"});
  for (const Case& c : cases) {
    harness::TrialConfig config = base;
    config.scenario = c.scenarios;
    harness::TrialStats stats;
    const double wall_ms = benchcommon::best_rep(reps, [&] {
                             stats = harness::run_beep_trials(graphs, c.protocols, config);
                           }).wall_ms;

    Measurement m;
    m.protocol = c.protocol;
    m.scenario = c.scenario;
    m.trials = stats.trials;
    m.valid = stats.valid;
    m.disruptions = stats.disruptions;
    m.recovered = stats.recovery_rounds.size();
    m.unrecovered = stats.unrecovered_disruptions;
    const harness::TrialStats::RecoveryQuantiles q = stats.recovery_quantiles();
    m.p50 = q.p50;
    m.p95 = q.p95;
    m.p99 = q.p99;
    m.mean_rounds = stats.rounds.mean();
    m.wall_ms = wall_ms;
    results.push_back(m);

    table.new_row()
        .cell(m.protocol)
        .cell(m.scenario)
        .cell(std::to_string(m.valid) + "/" + std::to_string(m.trials))
        .cell(m.disruptions)
        .cell(m.unrecovered)
        .cell(m.p50, 1)
        .cell(m.p95, 1)
        .cell(m.p99, 1)
        .cell(m.wall_ms, 2);
  }
  std::cout << table.to_string() << '\n';

  benchcommon::JsonReport report;
  report.bench = "bench_scenarios";
  report.git_rev = options.get("git-rev");
  report.header = {
      {"seed", benchcommon::json_number(seed)},
      {"avg_degree", benchcommon::json_number(avg_degree)},
      {"trials", benchcommon::json_number(trials)},
      {"tail_rounds", benchcommon::json_number(tail)},
      {"crash_budget", benchcommon::json_number(budget)},
  };
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"workload\": \"sla\", \"protocol\": \"" << m.protocol
        << "\", \"impl\": \"" << m.scenario << "\", \"n\": " << n
        << ", \"trials\": " << m.trials << ", \"valid\": " << m.valid
        << ", \"disruptions\": " << m.disruptions << ", \"recovered\": " << m.recovered
        << ", \"unrecovered\": " << m.unrecovered << ", \"recovery_p50\": " << m.p50
        << ", \"recovery_p95\": " << m.p95 << ", \"recovery_p99\": " << m.p99
        << ", \"mean_rounds\": " << m.mean_rounds << ", \"wall_ms\": " << m.wall_ms
        << "}";
    report.rows.push_back(row.str());
  }
  return report.write_to(options.get("out"), std::cout) ? 0 : 1;
}
