#include "mis/verifier.hpp"

#include <array>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace beepmis::mis {

VerificationReport verify_mis_run(const graph::Graph& g, const sim::RunResult& result) {
  if (result.status.size() != g.node_count()) {
    throw std::invalid_argument("verify_mis_run: result does not match graph size");
  }

  VerificationReport report;
  report.terminated = result.terminated;

  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    switch (result.status[v]) {
      case sim::NodeStatus::kActive:
        ++report.still_active;
        break;
      case sim::NodeStatus::kInMis: {
        ++report.mis_size;
        for (const graph::NodeId w : g.neighbors(v)) {
          if (v < w && result.status[w] == sim::NodeStatus::kInMis) {
            ++report.independence_violations;
          }
        }
        break;
      }
      case sim::NodeStatus::kDominated: {
        bool has_mis_neighbor = false;
        for (const graph::NodeId w : g.neighbors(v)) {
          if (result.status[w] == sim::NodeStatus::kInMis) {
            has_mis_neighbor = true;
            break;
          }
        }
        if (!has_mis_neighbor) ++report.uncovered_nodes;
        break;
      }
      case sim::NodeStatus::kCrashed:
        ++report.crashed;
        break;
    }
  }
  return report;
}

std::vector<VerificationReport> verify_mis_lanes(const graph::Graph& g,
                                                 const sim::LaneOutcomes& o) {
  const std::size_t n = g.node_count();
  if (o.n != n || o.crashed.size() != n || o.inmis.size() != n || o.dominated.size() != n) {
    throw std::invalid_argument("verify_mis_lanes: planes do not match graph size");
  }
  if (o.lanes == 0 || o.lanes > sim::kMaxBatchLanes) {
    throw std::invalid_argument("verify_mis_lanes: need 1..64 lanes");
  }

  // Per-lane tallies: each (node, lane) bit of a plane adds one to its lane.
  using Tally = std::array<std::size_t, sim::kMaxBatchLanes>;
  Tally mis{}, active{}, crashed{}, violations{}, uncovered{};
  const auto tally = [](sim::LaneMask m, Tally& t) {
    for (; m != 0; m &= m - 1) ++t[static_cast<unsigned>(std::countr_zero(m))];
  };

  // Same checks as verify_mis_run, with a lane plane in place of each
  // status compare: one neighbour walk serves the independence check (for
  // the lanes where v is in the MIS) and the coverage check (for the lanes
  // where it is dominated).
  const sim::LaneMask all = o.lane_mask();
  for (graph::NodeId v = 0; v < n; ++v) {
    const sim::LaneMask cr = o.crashed[v] & all;
    const sim::LaneMask im = o.mis_lanes(v) & all;
    const sim::LaneMask dm = o.dominated_lanes(v) & all;
    tally(cr, crashed);
    tally(im, mis);
    tally(all & ~(cr | im | dm), active);
    if ((im | dm) == 0) continue;
    sim::LaneMask covered = 0;
    for (const graph::NodeId w : g.neighbors(v)) {
      const sim::LaneMask im_w = o.mis_lanes(w);
      covered |= im_w;
      if (v < w) tally(im & im_w, violations);
    }
    tally(dm & ~covered, uncovered);
  }

  std::vector<VerificationReport> reports(o.lanes);
  for (unsigned l = 0; l < o.lanes; ++l) {
    VerificationReport& r = reports[l];
    r.terminated = (o.terminated >> l) & 1;
    r.independence_violations = violations[l];
    r.uncovered_nodes = uncovered[l];
    r.still_active = active[l];
    r.crashed = crashed[l];
    r.mis_size = mis[l];
  }
  return reports;
}

bool is_valid_mis_run(const graph::Graph& g, const sim::RunResult& result) {
  return verify_mis_run(g, result).valid();
}

std::string VerificationReport::summary() const {
  std::ostringstream ss;
  ss << (valid() ? "VALID" : "INVALID") << " mis_size=" << mis_size
     << " terminated=" << (terminated ? "yes" : "no")
     << " independence_violations=" << independence_violations
     << " uncovered=" << uncovered_nodes << " still_active=" << still_active
     << " crashed=" << crashed;
  return ss.str();
}

}  // namespace beepmis::mis
