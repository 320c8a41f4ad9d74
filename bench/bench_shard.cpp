// Sharded single-run benchmark: scalar BeepSimulator vs ShardedSimulator
// across shard counts on one large instance — the "one huge graph, many
// cores" regime the trial-level parallelism cannot touch.
//
// Every sharded row is cross-checked bit-identical against the scalar run
// before timing (the sharded determinism contract), so the ratio compares
// two executions of the same computation.
//
// Speedups depend on the machine: the per-run worker pool has one thread
// per shard, so rows report hardware_threads in the header — on a 1-core
// box the k > 1 rows measure pure overhead, not speedup.
//
// A build configured with -DBEEPMIS_PHASE_TIMERS=ON adds an optional
// "phase_ns" object to every row: CPU-nanoseconds per simulator phase
// (emit/deliver/react/faults) over that row's timing reps.
//
// Workloads:
//   converge        run to natural termination (~O(log n) rounds); the
//                   emit Bernoullis are carved serially but delivery and
//                   react parallelise.
//   keepalive-tail  mis_keepalive + run_until_round static tail (skipped
//                   above --tail-max-n: the cached keep-alive sweep is so
//                   cheap that barrier overhead dominates at huge n).
//
//   ./bench_shard [--n=1000000] [--avg-degree=8] [--shards=1,2,8]
//                 [--tail-rounds=500] [--tail-max-n=200000] [--reps=2]
//                 [--seed=2026] [--git-rev=<rev>] [--out=BENCH_shard.json]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "sim/beep.hpp"
#include "sim/sharded.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

struct Measurement {
  std::string workload;
  std::string impl;
  std::size_t n = 0;
  unsigned shards = 0;
  double wall_ms = 0.0;
  double speedup_vs_scalar = 1.0;
  /// Partition locality of the sharded rows (0 for the scalar row):
  /// edges crossing shard lines and nodes with out-of-shard neighbours —
  /// the cross-shard merge traffic the speedup has to survive.
  std::size_t cut_edges = 0;
  std::size_t boundary_nodes = 0;
  std::string phase;  ///< pre-rendered ", \"phase_ns\": {...}" or empty
};

using benchcommon::best_rep;

/// Parses --shards; exits with a clear message on junk (a non-numeric
/// token, 0, or a count the simulator would reject) rather than recording
/// a mislabeled row.
std::vector<unsigned> parse_shard_list(const std::string& csv) {
  std::vector<unsigned> shards;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::optional<std::uint64_t> value = support::parse_decimal_u64(item);
    if (!value || *value == 0 || *value > sim::ShardedSimulator::kMaxShards) {
      std::cerr << "--shards: '" << item << "' is not a shard count in [1, "
                << sim::ShardedSimulator::kMaxShards << "]\n";
      std::exit(1);
    }
    shards.push_back(static_cast<unsigned>(*value));
  }
  if (shards.empty()) shards = {1, 2, 8};
  return shards;
}

void check_same(const sim::RunResult& a, const sim::RunResult& b, const char* what) {
  if (a.rounds != b.rounds || a.total_beeps != b.total_beeps ||
      a.terminated != b.terminated || a.status != b.status ||
      a.beep_counts != b.beep_counts) {
    std::cerr << "FATAL: scalar and sharded runs diverged (" << what << ")\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "1000000", "nodes in the sparse G(n, d/n) instance");
  options.add("avg-degree", "8", "average degree");
  options.add("shards", "1,2,8", "comma-separated shard counts to measure");
  options.add("tail-rounds", "500", "run_until_round for keepalive-tail");
  options.add("tail-max-n", "200000", "skip keepalive-tail above this n");
  options.add("reps", "2", "timing repetitions (best-of)");
  options.add("seed", "2026", "run seed");
  options.add("git-rev", "unknown", "git revision recorded in the JSON header");
  options.add("out", "BENCH_shard.json", "JSON report path ('-' = stdout only)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_shard");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_shard");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(
      options.get_u64("n", std::numeric_limits<graph::NodeId>::max()));
  const double avg_degree = options.get_double("avg-degree");
  const std::vector<unsigned> shard_counts = parse_shard_list(options.get("shards"));
  const auto tail_rounds = static_cast<std::size_t>(options.get_int("tail-rounds"));
  const auto tail_max_n = static_cast<std::size_t>(options.get_int("tail-max-n"));
  const int reps = static_cast<int>(options.get_u64("reps", std::numeric_limits<int>::max()));
  const std::uint64_t seed = options.get_u64("seed");
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

  auto graph_rng = support::Xoshiro256StarStar(seed);
  const graph::Graph g = graph::gnp(n, avg_degree / static_cast<double>(n), graph_rng);
  std::cout << "graph: " << g.describe() << ", hardware threads: " << hardware << "\n\n";

  std::vector<Measurement> results;
  support::Table table({"workload", "impl", "shards", "cut edges", "wall ms", "speedup"});
  const auto record = [&](const std::string& workload, const std::string& impl,
                          unsigned shards, double ms, double speedup, std::size_t cut_edges,
                          std::size_t boundary_nodes, std::string phase) {
    results.push_back(
        {workload, impl, n, shards, ms, speedup, cut_edges, boundary_nodes, std::move(phase)});
    table.new_row()
        .cell(workload)
        .cell(impl)
        .cell(static_cast<std::size_t>(shards))
        .cell(cut_edges)
        .cell(ms)
        .cell(speedup);
  };
  const auto partition_stats = [](const graph::Partition& p, std::size_t& cut,
                                  std::size_t& boundary) {
    cut = p.cut_edges();
    boundary = 0;
    for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
      boundary += p.boundary_nodes(s).size();
    }
  };
  const auto measure_workload = [&](const std::string& workload,
                                    const sim::SimConfig& config) {
    sim::BeepSimulator scalar_sim(g, config);
    mis::LocalFeedbackMis scalar_protocol;
    const sim::RunResult reference =
        scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(seed));
    benchcommon::BestRep scalar = best_rep(reps, [&] {
      (void)scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(seed));
    });
    record(workload, "scalar", 1, scalar.wall_ms, 1.0, 0, 0, std::move(scalar.phase));

    for (const unsigned k : shard_counts) {
      sim::ShardedSimulator sharded_sim(g, k, config);
      mis::LocalFeedbackMis protocol;
      check_same(reference, sharded_sim.run(protocol, support::Xoshiro256StarStar(seed)),
                 (workload + " k=" + std::to_string(k)).c_str());
      benchcommon::BestRep sharded = best_rep(reps, [&] {
        (void)sharded_sim.run(protocol, support::Xoshiro256StarStar(seed));
      });
      std::size_t cut = 0, boundary = 0;
      partition_stats(sharded_sim.partition(), cut, boundary);
      record(workload, "sharded-k" + std::to_string(k), k, sharded.wall_ms,
             scalar.wall_ms / sharded.wall_ms, cut, boundary, std::move(sharded.phase));
    }
  };

  sim::SimConfig converge;
  measure_workload("converge", converge);
  if (n <= tail_max_n) {
    sim::SimConfig keepalive_tail;
    keepalive_tail.mis_keepalive = true;
    keepalive_tail.run_until_round = tail_rounds;
    measure_workload("keepalive-tail", keepalive_tail);
  }

  std::cout << table.to_string() << '\n';

  benchcommon::JsonReport report;
  report.bench = "bench_shard";
  report.git_rev = options.get("git-rev");
  report.header = {
      {"seed", benchcommon::json_number(seed)},
      {"avg_degree", benchcommon::json_number(avg_degree)},
      {"hardware_threads", benchcommon::json_number(hardware)},
  };
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"workload\": \"" << m.workload << "\", \"protocol\": \"local-feedback\""
        << ", \"impl\": \"" << m.impl << "\", \"n\": " << m.n
        << ", \"shards\": " << m.shards << ", \"cut_edges\": " << m.cut_edges
        << ", \"boundary_nodes\": " << m.boundary_nodes
        << ", \"wall_ms\": " << m.wall_ms
        << ", \"speedup_vs_scalar\": " << m.speedup_vs_scalar << m.phase << "}";
    report.rows.push_back(row.str());
  }
  return report.write_to(options.get("out"), std::cout) ? 0 : 1;
}
