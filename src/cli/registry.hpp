// Name-based registries mapping CLI strings to graph generators and MIS
// algorithms.  Kept as a library (rather than inline in the tool's main)
// so the mapping logic is unit-testable.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"
#include "graph/csr_file.hpp"
#include "graph/graph.hpp"
#include "sim/beep.hpp"
#include "sim/local.hpp"
#include "sim/scenario.hpp"

namespace beepmis::cli {

/// Parameters shared by all generators; each generator reads the subset it
/// needs (documented in graph_help()).
struct GraphSpec {
  std::string family = "gnp";
  graph::NodeId n = 100;
  double p = 0.5;          ///< edge probability / geometric radius
  graph::NodeId rows = 10; ///< grid-style families
  graph::NodeId cols = 10;
  graph::NodeId k = 3;     ///< clique-family parameter / BA attach edges
  std::uint64_t seed = 1;
  /// family="file" only: path of a graph file — BMCSR (memory-mapped CSR,
  /// graph/csr_file.hpp) or edge-list text, sniffed by content.
  std::string path;
};

/// Builds the requested graph.  Throws std::invalid_argument for an
/// unknown family name.
[[nodiscard]] graph::Graph make_graph(const GraphSpec& spec);

/// Registered family names, alphabetical.
[[nodiscard]] std::vector<std::string> graph_families();
/// One-line description per family.
[[nodiscard]] std::string graph_help();

/// A replayable edge enumeration plus the node count it covers: what the
/// streaming on-disk CSR writer (graph/csr_file.hpp) needs to build a
/// graph file in bounded memory, without materializing the graph.
struct GraphStream {
  graph::NodeId node_count = 0;
  graph::EdgeStream stream;
};

/// The streaming counterpart of make_graph: enumerates exactly the edges
/// make_graph(spec) would build (same parameters, same seed discipline),
/// so a streamed on-disk build is byte-identical to write_csr_file of the
/// in-RAM graph.  Throws std::invalid_argument for families with no
/// bounded-memory enumeration (tree, ba, geometric) and for a
/// family="file" path that is already a BMCSR container.
[[nodiscard]] GraphStream make_graph_stream(const GraphSpec& spec);

/// Fault-scenario selection (see sim/scenario.hpp); each scenario reads
/// the parameter subset documented in scenario_help().
struct ScenarioSpec {
  std::string name = "none";
  /// uniform-crash / target-boundary crash fraction; churn crashes/round;
  /// target-mis per-member crash probability.
  double rate = 0.05;
  std::uint32_t round_lo = 0;  ///< crash window start / adaptive start round
  std::uint32_t round_hi = 0;  ///< crash window end (inclusive)
  std::size_t budget = 64;     ///< max crashes (adaptive) / node count (target-degree)
  std::uint32_t shards = 2;    ///< target-boundary partition width
  double revive_delay_mean = 8.0;  ///< churn mean down-time
  std::uint64_t seed = 1;
};

/// Builds the named scenario, or nullptr for "none".  Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] std::shared_ptr<sim::FaultScenario> make_scenario(const ScenarioSpec& spec);

[[nodiscard]] std::vector<std::string> scenario_names();
[[nodiscard]] std::string scenario_help();

struct AlgorithmSpec {
  std::string name = "local-feedback";
  std::uint64_t seed = 1;
  /// Simulator knobs.  LOCAL-model algorithms read only max_rounds.
  sim::SimConfig sim;
  /// Local-feedback knobs (ignored by other algorithms).
  double factor = 2.0;
  double initial_p = 0.5;
  /// >= 2: run through sim::ShardedSimulator with this many shards (one
  /// worker thread each) — bit-identical to the scalar run, so results
  /// never depend on the flag.  LOCAL-model algorithms throw
  /// std::invalid_argument; so does run_algorithm for a beeping protocol
  /// without shard support (pure-beep), which run_sweep runs unsharded.
  unsigned shards = 1;
  /// Fault adversary (beeping algorithms only; scalar simulator only —
  /// combining with shards >= 2 throws).
  ScenarioSpec scenario;
  /// Wall-clock budget for one run (beeping algorithms; 0 = unlimited):
  /// arms SimConfig::deadline_ns, so the simulator throws sim::RunCancelled
  /// at the first round boundary past the deadline.  Callers catch it and
  /// degrade (the sensor_network example falls back to greedy-id).
  double budget_seconds = 0.0;
};

/// One registered MIS algorithm: the single table that run_algorithm,
/// run_sweep, algorithm_names and algorithm_help all read.  Exactly one
/// factory is set — `beep` for a beeping-model protocol (`g`
/// parameterises the global-increasing schedule), `local` for a
/// LOCAL-model one.
struct Algorithm {
  std::string_view name;
  std::string_view help;  ///< one line of algorithm_help()
  std::unique_ptr<sim::BeepProtocol> (*beep)(const AlgorithmSpec&, const graph::Graph& g) =
      nullptr;
  std::unique_ptr<sim::LocalProtocol> (*local)(const AlgorithmSpec&) = nullptr;
  /// Runs with SimConfig::mis_keepalive on whatever the spec says
  /// (self-healing detects dominator death through keep-alive silence).
  bool forces_keepalive = false;
};

/// The algorithm table, in algorithm_help() order.
[[nodiscard]] std::span<const Algorithm> algorithms();

/// Runs the named algorithm once on `g`, drawing from `spec.seed`.  Throws
/// std::invalid_argument for an unknown algorithm name or a knob the
/// algorithm cannot honour.
[[nodiscard]] sim::RunResult run_algorithm(const AlgorithmSpec& spec, const graph::Graph& g);

/// Registered algorithm names, alphabetical.
[[nodiscard]] std::vector<std::string> algorithm_names();
[[nodiscard]] std::string algorithm_help();

// --- Crash-safe trial sweeps (the harness path; src/exp/README.md) ------

/// A crash-safe multi-trial sweep request: one graph (GraphSpec), one
/// algorithm of either model, and harness-derived per-trial seeds: trial
/// t draws from harness::trial_run_seed(base_seed, t), a node of the
/// SeedSequence tree rooted at base_seed.  Every multi-trial run of
/// beepmis_cli and every beepmisd request is one of these.
struct SweepSpec {
  GraphSpec graph;
  AlgorithmSpec algorithm;
  std::size_t trials = 1;
  std::uint64_t base_seed = 1;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  // Crash-safety knobs, forwarded to harness::TrialConfig (see there).
  std::string journal_path;
  bool resume = false;
  double budget_seconds = 0.0;
  double trial_timeout_seconds = 0.0;
  bool isolate_faults = false;
  unsigned max_retries = 2;
  std::size_t checkpoint_interval = 64;
};

/// Stable identity of the sweep *request*: the StableHash of the spec's
/// canonical request text (cli/sweep_spec.hpp's format_sweep_request), so
/// equal serialized requests — and only those — share a fingerprint.
///
/// This is a documented **stability contract** (pinned by golden-hash
/// tests in tests/test_sweep_spec.cpp): the value for a given spec must
/// never change within a schema version, because it keys (a) the sweep
/// journal's request hash (TrialConfig::request_fingerprint — a journal
/// written for one request is rejected by any other) and (b) the beepmisd
/// result cache and in-flight job identity (src/svc/).  Covered: graph
/// family and parameters (including the family="file" path — a different
/// file is a different workload), algorithm name and knobs, sim knobs
/// (loss, keepalive, max_rounds, run_until, track_recovery), scenario
/// parameters, trials, base_seed and checkpoint_interval (chunk geometry
/// decides merge order, hence the exact bits).  Deliberately *excluded*,
/// matching SweepJournal's request-hash rules (src/exp/README.md): thread
/// count, shard count, shard-local adjacency (bit-identical by contract),
/// journal path, resume, budget, trial timeout and retry knobs —
/// execution-path and durability choices that never change the numbers of
/// a cleanly completed sweep.
[[nodiscard]] std::uint64_t sweep_fingerprint(const SweepSpec& spec);

/// Observability/cancellation hooks a long-lived caller (the beepmisd
/// service) threads into the sweep; both optional.
struct SweepHooks {
  /// Forwarded to TrialConfig::on_checkpoint (chunks completed by this
  /// invocation so far; called under the checkpoint lock — keep cheap).
  std::function<void(std::size_t chunks_completed)> on_checkpoint;
  /// Forwarded to TrialConfig::stop_request: set to true to stop the
  /// sweep at the next chunk boundary (returns truncated = true).
  std::shared_ptr<std::atomic<bool>> stop_request;
};

/// Runs the sweep through harness::run_beep_trials (beeping algorithms) or
/// harness::run_local_trials (LOCAL-model ones, capped at
/// sim.max_rounds) with journaling, fault isolation and budget controls
/// wired up.  Throws std::invalid_argument for unknown names, invalid
/// knobs, or a scenario or shard count on a LOCAL-model algorithm.
[[nodiscard]] harness::TrialStats run_sweep(const SweepSpec& spec);
[[nodiscard]] harness::TrialStats run_sweep(const SweepSpec& spec, const SweepHooks& hooks);

}  // namespace beepmis::cli
