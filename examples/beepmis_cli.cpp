// beepmis_cli: run trials of any registered MIS algorithm on any registered
// graph family.  Every run — beeping or LOCAL model, one trial or many —
// is a cli::run_sweep request: trial t draws from the --seed seed tree
// (harness::trial_run_seed), the batched and sharded fast paths engage as
// harness::plan_execution routes them, and the aggregate prints as
// human-readable means plus bit-exact `stats_bits` lines (or, with --csv,
// as one CSV header and one aggregate row).
//
//   ./beepmis_cli --graph=gnp --n=200 --p=0.5 --algorithm=local-feedback
//   ./beepmis_cli --graph=grid --rows=16 --cols=16 --trials=50 --csv
//   ./beepmis_cli --graph=gnp --algorithm=luby --trials=20
//   ./beepmis_cli --graph=gnp --n=50 --dot-out=mis.dot   # trial 0's MIS as DOT
//   ./beepmis_cli --list
//
// Crash-safe sweeps (see src/exp/README.md):
//   ./beepmis_cli --graph=gnp --n=400 --trials=512 --journal=sweep.journal
//   ./beepmis_cli ... --journal=sweep.journal --resume     # after a crash
//   ./beepmis_cli ... --budget=30                          # honest partial answer
//
// Serialized-spec mode (cli/sweep_spec.hpp — the same canonical line the
// beepmisd service accepts over its socket):
//   ./beepmis_cli --spec='sweepspec v3 graph=gnp graph.n=400 trials=512'
//   ./beepmis_cli --graph=gnp --trials=512 --print-spec    # flags -> canonical line
//
// Exit codes: 0 complete and valid, 1 invalid MIS results or a bad flag,
// 2 quarantined trials, 3 truncated (partial but resumable).
#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "cli/registry.hpp"
#include "cli/sweep_spec.hpp"
#include "graph/io.hpp"
#include "support/hash.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"

namespace {

/// Machine-readable, bit-exact digest of the sweep aggregates: one line
/// per metric with the Welford state as raw bit patterns.  The
/// kill-and-resume CI script diffs these lines between an uninterrupted
/// run and an interrupted-then-resumed one — formatting floats would hide
/// low-bit divergence, so the bits are printed directly.
void print_stats_bits(const char* name, const beepmis::support::RunningStats& s) {
  using beepmis::support::to_hex_u64;
  const auto st = s.state();
  std::cout << "stats_bits " << name << ' ' << st.count << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.mean)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.m2)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.min)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.max)) << '\n';
}

/// A count flag, range-checked for its destination type; throws
/// std::invalid_argument naming the flag.
template <typename T>
T count_flag(const beepmis::support::Options& options, const std::string& name) {
  return static_cast<T>(beepmis::cli::parse_count_flag("--" + name, options.get(name),
                                                       std::numeric_limits<T>::max()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("graph", "gnp", "graph family (see --list)");
  options.add("algorithm", "local-feedback", "algorithm (see --list)");
  options.add("n", "100", "node count");
  options.add("p", "0.5", "edge probability / geometric radius");
  options.add("rows", "10", "rows for lattice families");
  options.add("cols", "10", "cols for lattice families");
  options.add("k", "3", "clique-family parameter / BA attach edges");
  options.add("graph-file", "",
              "load the graph from this file (implies --graph=file; BMCSR "
              "memory-mapped CSR or edge-list text, sniffed by content)");
  options.add("save-graph", "",
              "write the requested graph as an on-disk BMCSR file to this path and "
              "exit (streaming, bounded memory, for streamable families)");
  options.add("graph-seed", "1", "graph generation seed");
  options.add("seed", "1", "sweep base seed (trial t's seed is node t of its seed tree)");
  options.add("trials", "1", "number of runs (same graph, different seeds)");
  options.add("loss", "0", "beep loss probability (beeping algorithms)");
  options.add("shards", "1",
              "run each trial across this many CSR shards / worker threads "
              "(shard-capable beeping algorithms; results are bit-identical)");
  options.add("shard-local", "false",
              "with --shards: each shard reads a reordered local adjacency copy "
              "(locality for mmap-backed graphs; results are bit-identical)");
  options.add("keepalive", "false", "MIS nodes keep beeping (wake-up support)");
  options.add("max-rounds", "1048576", "round cap");
  options.add("factor", "2.0", "local-feedback feedback factor");
  options.add("initial-p", "0.5", "local-feedback initial probability");
  options.add("scenario", "none", "fault adversary (see --list; beeping algorithms)");
  options.add("scenario-rate", "0.05",
              "scenario crash fraction / churn rate / crash probability");
  options.add("scenario-lo", "0", "scenario crash-window start round");
  options.add("scenario-hi", "0", "scenario crash-window end round (churn: 0 = open)");
  options.add("scenario-budget", "64", "scenario crash budget / target count");
  options.add("scenario-seed", "1", "scenario rng seed");
  options.add("run-until", "0", "keep simulating until at least this round");
  options.add("track-recovery", "false", "collect recovery-time SLA samples");
  options.add("journal", "", "checkpoint per-chunk aggregates to this file (crash-safe)");
  options.add("resume", "false", "load --journal and skip its completed chunks");
  options.add("budget", "0",
              "sweep wall-clock budget in seconds (0 = unlimited); on expiry the "
              "sweep checkpoints and returns a truncated partial result (exit 3)");
  options.add("trial-timeout", "0", "per-trial-attempt timeout in seconds (0 = unlimited)");
  options.add("isolate-faults", "false",
              "retry (then quarantine) throwing trials instead of failing the sweep");
  options.add("max-retries", "2", "extra attempts per failing trial (with --isolate-faults)");
  options.add("checkpoint-interval", "64", "trials per checkpoint chunk (rounded up to x64)");
  options.add("threads", "0", "sweep worker threads (0 = hardware concurrency)");
  options.add("spec", "",
              "run a serialized sweep request ('sweepspec v3 ...'); the complete "
              "request — the individual sweep flags above are ignored");
  options.add("print-spec", "false",
              "print the canonical serialized spec and fingerprint for the given "
              "flags (or --spec) instead of running");
  options.add("dot-out", "", "write DOT with trial 0's MIS highlighted to this file");
  options.add("csv", "false", "print the aggregate as one CSV header and row");
  options.add("list", "false", "list graph families and algorithms");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("beepmis_cli");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("beepmis_cli") << '\n'
              << cli::graph_help() << '\n'
              << cli::algorithm_help() << '\n'
              << cli::scenario_help();
    return 0;
  }
  if (options.get_bool("list")) {
    std::cout << cli::graph_help() << '\n' << cli::algorithm_help() << '\n'
              << cli::scenario_help();
    return 0;
  }

  try {
    // The request: a serialized spec, or the individual flags.
    cli::SweepSpec spec;
    if (const std::string text = options.get("spec"); !text.empty()) {
      spec = cli::parse_sweep_spec(text);
    } else {
      cli::GraphSpec& gspec = spec.graph;
      gspec.family = options.get("graph");
      gspec.n = count_flag<graph::NodeId>(options, "n");
      gspec.p = options.get_double("p");
      gspec.rows = count_flag<graph::NodeId>(options, "rows");
      gspec.cols = count_flag<graph::NodeId>(options, "cols");
      gspec.k = count_flag<graph::NodeId>(options, "k");
      gspec.seed = options.get_u64("graph-seed");
      if (const std::string graph_file = options.get("graph-file"); !graph_file.empty()) {
        gspec.family = "file";
        gspec.path = graph_file;
      }

      cli::AlgorithmSpec& aspec = spec.algorithm;
      aspec.name = options.get("algorithm");
      aspec.sim.beep_loss_probability = options.get_double("loss");
      aspec.sim.mis_keepalive = options.get_bool("keepalive");
      aspec.sim.max_rounds = count_flag<std::size_t>(options, "max-rounds");
      aspec.factor = options.get_double("factor");
      aspec.initial_p = options.get_double("initial-p");
      aspec.shards = count_flag<unsigned>(options, "shards");
      aspec.sim.shard_local_adjacency = options.get_bool("shard-local");
      aspec.sim.run_until_round = count_flag<std::size_t>(options, "run-until");
      aspec.sim.track_recovery = options.get_bool("track-recovery");
      aspec.scenario.name = options.get("scenario");
      aspec.scenario.rate = options.get_double("scenario-rate");
      aspec.scenario.round_lo = count_flag<std::uint32_t>(options, "scenario-lo");
      aspec.scenario.round_hi = count_flag<std::uint32_t>(options, "scenario-hi");
      aspec.scenario.budget = count_flag<std::size_t>(options, "scenario-budget");
      aspec.scenario.seed = options.get_u64("scenario-seed");

      spec.trials = count_flag<std::size_t>(options, "trials");
      spec.base_seed = options.get_u64("seed");
      spec.threads = count_flag<unsigned>(options, "threads");
      spec.journal_path = options.get("journal");
      spec.resume = options.get_bool("resume");
      spec.budget_seconds = cli::parse_seconds_flag("--budget", options.get("budget"));
      spec.trial_timeout_seconds =
          cli::parse_seconds_flag("--trial-timeout", options.get("trial-timeout"));
      spec.isolate_faults = options.get_bool("isolate-faults");
      spec.max_retries = count_flag<unsigned>(options, "max-retries");
      spec.checkpoint_interval = count_flag<std::size_t>(options, "checkpoint-interval");
    }

    // Save-graph mode: materialise the workload as an on-disk BMCSR file
    // and exit.  Streamable families (and edge-list text inputs) go through
    // the bounded-memory streaming writer; the rest build in RAM first.
    if (const std::string save_path = options.get("save-graph"); !save_path.empty()) {
      try {
        const cli::GraphStream gs = cli::make_graph_stream(spec.graph);
        const graph::StreamCsrStats stats =
            graph::write_csr_file_streaming(gs.node_count, gs.stream, save_path);
        std::cout << "saved " << save_path << ": n=" << gs.node_count
                  << " adjacency=" << stats.adjacency_count << " (streamed, "
                  << stats.stream_passes << " passes)\n";
      } catch (const std::invalid_argument&) {
        const graph::Graph built = cli::make_graph(spec.graph);
        graph::write_csr_file(built, save_path);
        std::cout << "saved " << save_path << ": " << built.describe() << " (in-RAM build)\n";
      }
      return 0;
    }

    if (options.get_bool("print-spec")) {
      std::cout << cli::format_sweep_spec(spec) << '\n'
                << "fingerprint " << support::to_hex_u64(cli::sweep_fingerprint(spec)) << '\n';
      return 0;
    }

    const harness::TrialStats stats = cli::run_sweep(spec);

    // Trial 0 re-run directly from its sweep seed: the same run the sweep
    // aggregated, with its MIS kept for drawing.
    if (const std::string dot = options.get("dot-out"); !dot.empty()) {
      const graph::Graph g = cli::make_graph(spec.graph);
      cli::AlgorithmSpec trial0 = spec.algorithm;
      trial0.seed = harness::trial_run_seed(spec.base_seed, 0);
      std::ofstream out(dot);
      if (!out) throw std::runtime_error("--dot-out: cannot open " + dot);
      graph::write_dot(out, g, cli::run_algorithm(trial0, g).mis());
    }

    if (options.get_bool("csv")) {
      std::cout << "requested,completed,quarantined,resumed,truncated,terminated,valid,"
                   "rounds_mean,rounds_stddev,beeps_per_node_mean,max_beeps_any_node_mean,"
                   "mis_size_mean,message_bits_mean\n"
                << stats.requested_trials << ',' << stats.trials << ',' << stats.quarantined
                << ',' << stats.resumed_trials << ',' << (stats.truncated ? 1 : 0) << ','
                << stats.terminated << ',' << stats.valid << ',' << stats.rounds.mean() << ','
                << stats.rounds.stddev() << ',' << stats.beeps_per_node.mean() << ','
                << stats.max_beeps_any_node.mean() << ',' << stats.mis_size.mean() << ','
                << stats.message_bits.mean() << '\n';
    } else {
      if (!stats.resume_discarded_reason.empty()) {
        std::cout << "journal rejected: " << stats.resume_discarded_reason << '\n';
      }
      std::cout << "sweep: requested " << stats.requested_trials << ", completed "
                << stats.trials << ", attempted " << stats.attempted << ", quarantined "
                << stats.quarantined << ", retries " << stats.retries << ", resumed "
                << stats.resumed_trials << ", truncated " << (stats.truncated ? 1 : 0)
                << '\n';
      for (const harness::FailedTrial& f : stats.failed_trials) {
        std::cout << "quarantined trial " << f.trial << " after " << f.attempts
                  << " attempt(s): " << f.error << '\n';
      }
      const auto rounds_ci = harness::TrialStats::ci95(stats.rounds);
      std::cout << "rounds mean " << stats.rounds.mean() << " ci95 [" << rounds_ci.lo << ", "
                << rounds_ci.hi << "], MIS size " << stats.mis_size.mean() << ", valid "
                << stats.valid << "/" << stats.trials << '\n';
      print_stats_bits("rounds", stats.rounds);
      print_stats_bits("beeps_per_node", stats.beeps_per_node);
      print_stats_bits("max_beeps_any_node", stats.max_beeps_any_node);
      print_stats_bits("mis_size", stats.mis_size);
      print_stats_bits("message_bits", stats.message_bits);
      std::cout << "counts_exact " << stats.trials << ' ' << stats.terminated << ' '
                << stats.valid << ' ' << stats.independence_violations << ' '
                << stats.uncovered_nodes << '\n';
    }

    if (stats.truncated) return 3;
    if (stats.quarantined > 0) return 2;
    return stats.valid == stats.trials ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "beepmis_cli: " << e.what() << '\n';
    return 1;
  }
}
