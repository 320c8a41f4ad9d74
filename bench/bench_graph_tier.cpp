// Graph storage-tier benchmark: the same simulation on the in-RAM CSR vs
// the memory-mapped BMCSR file vs mmap-plus-reordered shard-local
// adjacency copies (graph::Partition::materialize_local_adjacency) — the
// read-path cost of each tier of the memory-tiered storage layer
// (src/graph/README.md), plus a streamed-build row recording what the
// bounded-memory on-disk builder costs versus building in RAM.
//
// Every mmap row is cross-checked bit-identical against the in-RAM run
// before timing (the tier-blindness contract — the tier is an execution
// choice, never a results choice), so the ratio columns compare two
// executions of the same computation.  Shard-local rows are additionally
// cross-checked against the shared-adjacency sharded run.
//
// A build configured with -DBEEPMIS_PHASE_TIMERS=ON adds "phase_ns" to
// every simulator row; the deliver/emit ratio of those rows is what
// scripts/check_bench_regression.py's phase-drift tracking watches — a
// tier whose delivery sweep quietly slows (page faults, lost locality)
// shifts that ratio even when total wall time stays inside the speedup
// tolerance.
//
//   ./bench_graph_tier [--n=200000] [--avg-degree=8] [--shards=4]
//                      [--reps=2] [--seed=2026] [--budget-mb=64]
//                      [--git-rev=<rev>] [--out=BENCH_graph_tier.json]
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "graph/csr_file.hpp"
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
  unsigned shards = 1;
  double wall_ms = 0.0;
  /// ram_ms / wall_ms against the same front-end on the in-RAM tier
  /// (1.0 for the ram rows themselves); omitted for the build rows.
  double speedup_vs_ram = 0.0;
  bool has_speedup = true;
  std::string phase;  ///< pre-rendered ", \"phase_ns\": {...}" or empty
};

using benchcommon::best_rep;

void check_same(const sim::RunResult& a, const sim::RunResult& b, const char* what) {
  if (a.rounds != b.rounds || a.total_beeps != b.total_beeps ||
      a.terminated != b.terminated || a.status != b.status ||
      a.beep_counts != b.beep_counts) {
    std::cerr << "FATAL: storage tiers diverged (" << what << ")\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "200000", "nodes in the sparse G(n, d/n) instance");
  options.add("avg-degree", "8", "average degree");
  options.add("shards", "4", "shard count for the sharded tier rows");
  options.add("reps", "2", "timing repetitions (best-of)");
  options.add("seed", "2026", "run seed");
  options.add("budget-mb", "64", "streaming builder memory budget (MiB)");
  options.add("git-rev", "unknown", "git revision recorded in the JSON header");
  options.add("out", "BENCH_graph_tier.json", "JSON report path ('-' = stdout only)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_graph_tier");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_graph_tier");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(
      options.get_u64("n", std::numeric_limits<graph::NodeId>::max()));
  const double avg_degree = options.get_double("avg-degree");
  const auto shards = static_cast<unsigned>(
      options.get_u64("shards", std::numeric_limits<unsigned>::max()));
  const int reps = static_cast<int>(options.get_u64("reps", std::numeric_limits<int>::max()));
  const std::uint64_t seed = options.get_u64("seed");
  const std::size_t budget_bytes =
      options.get_u64("budget-mb", std::numeric_limits<std::size_t>::max() >> 20) << 20;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  const double p = avg_degree / static_cast<double>(n);

  const std::string file_path =
      (std::filesystem::temp_directory_path() /
       ("bench_graph_tier_" + std::to_string(::getpid()) + ".bmcsr"))
          .string();

  std::vector<Measurement> results;
  support::Table table({"workload", "impl", "shards", "wall ms", "vs ram"});
  const auto record = [&](const std::string& workload, const std::string& impl,
                          unsigned k, double ms, double speedup, bool has_speedup,
                          std::string phase) {
    results.push_back({workload, impl, n, k, ms, speedup, has_speedup,
                       std::move(phase)});
    support::Table& row =
        table.new_row().cell(workload).cell(impl).cell(static_cast<std::size_t>(k)).cell(
            ms);
    if (has_speedup) {
      row.cell(speedup);
    } else {
      row.cell("-");
    }
  };
  // --- build rows: in-RAM generator vs bounded-memory streamed file -------
  auto graph_rng = support::Xoshiro256StarStar(seed);
  const auto ram_build_start = std::chrono::steady_clock::now();
  const graph::Graph g_ram = graph::gnp(n, p, graph_rng);
  const double ram_build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                ram_build_start)
          .count();
  record("build", "ram-builder", 1, ram_build_ms, 0.0, false, "");

  graph::StreamCsrOptions stream_options;
  stream_options.memory_budget_bytes = budget_bytes;
  const graph::EdgeStream stream = graph::gnp_edge_stream(n, p, seed);
  const auto stream_build_start = std::chrono::steady_clock::now();
  const graph::StreamCsrStats stream_stats =
      graph::write_csr_file_streaming(n, stream, file_path, stream_options);
  const double stream_build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                stream_build_start)
          .count();
  record("build", "stream-builder", 1, stream_build_ms, 0.0, false, "");

  const graph::Graph g_map = graph::load_csr_file(file_path);
  std::cout << "graph: " << g_ram.describe() << ", streamed file: "
            << stream_stats.adjacency_count << " adjacency slots in "
            << stream_stats.stream_passes << " passes, hardware threads: " << hardware
            << "\n\n";

  // The streamed file must be the same workload as the in-RAM build.
  if (g_map.node_count() != g_ram.node_count() ||
      g_map.edge_count() != g_ram.edge_count()) {
    std::cerr << "FATAL: streamed BMCSR and in-RAM build disagree on the graph\n";
    return 1;
  }

  // --- simulator rows: scalar and sharded on each tier ---------------------
  const sim::SimConfig config;

  mis::LocalFeedbackMis scalar_protocol;
  sim::BeepSimulator scalar_sim(config);
  const sim::RunResult reference =
      scalar_sim.run(g_ram, scalar_protocol, support::Xoshiro256StarStar(seed));
  benchcommon::BestRep scalar_ram = best_rep(reps, [&] {
    (void)scalar_sim.run(g_ram, scalar_protocol, support::Xoshiro256StarStar(seed));
  });
  record("converge", "scalar-ram", 1, scalar_ram.wall_ms, 1.0, true,
         std::move(scalar_ram.phase));

  check_same(reference,
             scalar_sim.run(g_map, scalar_protocol, support::Xoshiro256StarStar(seed)),
             "scalar mmap");
  benchcommon::BestRep scalar_map = best_rep(reps, [&] {
    (void)scalar_sim.run(g_map, scalar_protocol, support::Xoshiro256StarStar(seed));
  });
  record("converge", "scalar-mmap", 1, scalar_map.wall_ms,
         scalar_ram.wall_ms / scalar_map.wall_ms, true, std::move(scalar_map.phase));

  struct TierCase {
    const char* impl;
    const graph::Graph* graph;
    bool shard_local;
  };
  const TierCase tiers[] = {
      {"sharded-ram", &g_ram, false},
      {"sharded-mmap", &g_map, false},
      {"sharded-mmap-local", &g_map, true},
  };
  double sharded_ram_ms = 0.0;
  for (const TierCase& tier : tiers) {
    sim::SimConfig tier_config = config;
    tier_config.shard_local_adjacency = tier.shard_local;
    sim::ShardedSimulator sharded_sim(*tier.graph, shards, tier_config);
    mis::LocalFeedbackMis protocol;
    check_same(reference, sharded_sim.run(protocol, support::Xoshiro256StarStar(seed)),
               tier.impl);
    benchcommon::BestRep sharded = best_rep(reps, [&] {
      (void)sharded_sim.run(protocol, support::Xoshiro256StarStar(seed));
    });
    if (sharded_ram_ms == 0.0) sharded_ram_ms = sharded.wall_ms;
    record("converge", tier.impl, shards, sharded.wall_ms, sharded_ram_ms / sharded.wall_ms,
           true, std::move(sharded.phase));
  }

  std::filesystem::remove(file_path);
  std::cout << table.to_string() << '\n';

  benchcommon::JsonReport report;
  report.bench = "bench_graph_tier";
  report.git_rev = options.get("git-rev");
  report.header = {
      {"seed", benchcommon::json_number(seed)},
      {"avg_degree", benchcommon::json_number(avg_degree)},
      {"hardware_threads", benchcommon::json_number(hardware)},
      {"stream_budget_bytes", benchcommon::json_number(budget_bytes)},
      {"stream_passes", benchcommon::json_number(stream_stats.stream_passes)},
  };
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"workload\": \"" << m.workload << "\", \"protocol\": \"local-feedback\""
        << ", \"impl\": \"" << m.impl << "\", \"n\": " << m.n << ", \"shards\": " << m.shards
        << ", \"wall_ms\": " << m.wall_ms;
    if (m.has_speedup) row << ", \"speedup_vs_ram\": " << m.speedup_vs_ram;
    row << m.phase << "}";
    report.rows.push_back(row.str());
  }
  return report.write_to(options.get("out"), std::cout) ? 0 : 1;
}
