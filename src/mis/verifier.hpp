// Correctness oracle for simulator runs.  Checks the three MIS conditions
// plus internal consistency of node fates, and counts each violation kind
// separately so fault-injection experiments can report *how* an execution
// degraded rather than a bare pass/fail.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/exchange_core.hpp"
#include "sim/result.hpp"

namespace beepmis::mis {

struct VerificationReport {
  bool terminated = false;  ///< all nodes inactive within the round cap
  /// Edges with both endpoints in the MIS (must be 0 for independence).
  std::size_t independence_violations = 0;
  /// Inactive non-MIS nodes with no MIS neighbour (break maximality).
  std::size_t uncovered_nodes = 0;
  /// Nodes still active at the end of the run.
  std::size_t still_active = 0;
  /// Fail-stopped nodes (fault injection); exempt from coverage checks.
  std::size_t crashed = 0;
  std::size_t mis_size = 0;

  [[nodiscard]] bool independent() const noexcept { return independence_violations == 0; }
  /// Maximality in the fate-consistency sense: every inactive non-member is
  /// dominated.  Together with terminated this implies set-maximality.
  [[nodiscard]] bool maximal() const noexcept {
    return uncovered_nodes == 0 && still_active == 0;
  }
  [[nodiscard]] bool valid() const noexcept {
    return terminated && independent() && maximal();
  }
  [[nodiscard]] std::string summary() const;
};

/// Verifies `result` (produced on graph `g`).  Throws std::invalid_argument
/// if sizes do not match the graph.
[[nodiscard]] VerificationReport verify_mis_run(const graph::Graph& g,
                                                const sim::RunResult& result);

/// verify_mis_run for every lane of a finished batch, in one pass over the
/// graph and the final planes: element l equals
/// verify_mis_run(g, sim::detail::extract_lane_results(outcomes)[l]).
/// Throws std::invalid_argument if the planes do not match the graph.
[[nodiscard]] std::vector<VerificationReport> verify_mis_lanes(
    const graph::Graph& g, const sim::LaneOutcomes& outcomes);

/// Shorthand: true iff the run terminated with a valid MIS.
[[nodiscard]] bool is_valid_mis_run(const graph::Graph& g, const sim::RunResult& result);

}  // namespace beepmis::mis
