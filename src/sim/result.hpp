// Common result type for simulator runs: node fates plus the resource
// metrics the paper reports (rounds = "time steps", beeps per node,
// message bits for the LOCAL-model baseline).
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace beepmis::sim {

/// Thrown when a run is abandoned because its cooperative deadline
/// (SimConfig::deadline_ns or LocalSimConfig::deadline_ns) expired.  The
/// trial harness maps this either to a per-trial timeout (a failed attempt
/// that is retried / quarantined) or to sweep-budget expiry (the trial is
/// abandoned and the sweep is truncated at a clean boundary) depending on
/// which deadline fired — see exp/runner.hpp.
class RunCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Monotonic now in nanoseconds, the unit of the simulators' deadline_ns.
[[nodiscard]] inline std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fate of a node during a distributed MIS execution.
enum class NodeStatus : std::uint8_t {
  kActive,     ///< still undecided (possibly not yet awake)
  kInMis,      ///< joined the independent set (inactive)
  kDominated,  ///< has a neighbour in the set (inactive)
  kCrashed,    ///< fail-stopped before deciding (fault injection only)
};

struct RunResult {
  /// True when every node became inactive before the round cap.
  bool terminated = false;
  /// Number of rounds executed, in the paper's "time step" unit (one round
  /// may comprise several beep exchanges).
  std::size_t rounds = 0;
  std::vector<NodeStatus> status;
  /// Beeps emitted per node across the whole run (beeping model only).
  std::vector<std::uint32_t> beep_counts;
  /// Total beeps across all nodes and exchanges.
  std::uint64_t total_beeps = 0;
  /// Total message bits sent (LOCAL-model runs; 0 for the beeping model,
  /// where `total_beeps` is the natural measure).
  std::uint64_t message_bits = 0;
  /// Recovery-SLA samples (SimConfig::track_recovery only): for each
  /// disruption — a round where an MIS member crashed or a crashed node
  /// revived — the number of rounds until the run was next quiescent with
  /// a valid MIS over the surviving nodes.  In disruption order.
  std::vector<std::uint32_t> recovery_rounds;
  /// Disruptions still open when the run ended (never recovered).
  std::size_t unrecovered_disruptions = 0;
  /// Total BeepContext::reactivate calls across the run (self-healing
  /// protocols; 0 otherwise).  Counted by the simulator's mutation sink so
  /// every front-end — scalar, sharded, batched — reports it without the
  /// protocol keeping a shared counter (which would break sharding).
  std::uint64_t reactivations = 0;

  /// Nodes with status kInMis, ascending.
  [[nodiscard]] std::vector<graph::NodeId> mis() const;
  /// Number of still-active nodes (0 iff terminated normally).
  [[nodiscard]] std::size_t active_count() const;
  /// Number of fail-stopped nodes.
  [[nodiscard]] std::size_t crashed_count() const;
  /// Mean beeps per node (over all nodes, including non-beepers).
  [[nodiscard]] double mean_beeps_per_node() const;
};

}  // namespace beepmis::sim
