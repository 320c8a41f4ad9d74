#include "mis/verifier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace beepmis::mis {
namespace {

using sim::NodeStatus;
using sim::RunResult;

RunResult make_result(std::vector<NodeStatus> status, bool terminated = true) {
  RunResult r;
  r.status = std::move(status);
  r.terminated = terminated;
  r.beep_counts.assign(r.status.size(), 0);
  return r;
}

TEST(Verifier, AcceptsValidMisOnPath) {
  const graph::Graph g = graph::path(3);  // 0-1-2; {0, 2} is the MIS
  const RunResult r = make_result(
      {NodeStatus::kInMis, NodeStatus::kDominated, NodeStatus::kInMis});
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_TRUE(report.valid());
  EXPECT_TRUE(report.independent());
  EXPECT_TRUE(report.maximal());
  EXPECT_EQ(report.mis_size, 2u);
}

TEST(Verifier, DetectsIndependenceViolation) {
  const graph::Graph g = graph::path(2);
  const RunResult r = make_result({NodeStatus::kInMis, NodeStatus::kInMis});
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());
  EXPECT_EQ(report.independence_violations, 1u);
  EXPECT_FALSE(report.independent());
}

TEST(Verifier, CountsEachBadEdgeOnce) {
  const graph::Graph g = graph::complete(3);
  const RunResult r =
      make_result({NodeStatus::kInMis, NodeStatus::kInMis, NodeStatus::kInMis});
  EXPECT_EQ(verify_mis_run(g, r).independence_violations, 3u);
}

TEST(Verifier, DetectsUncoveredDominatedNode) {
  // Node 1 claims to be dominated but has no MIS neighbour.
  const graph::Graph g = graph::path(3);
  const RunResult r = make_result(
      {NodeStatus::kInMis, NodeStatus::kDominated, NodeStatus::kDominated});
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());
  EXPECT_EQ(report.uncovered_nodes, 1u);  // node 2 (neighbour 1 is not in MIS)
}

TEST(Verifier, DetectsStillActiveNodes) {
  const graph::Graph g = graph::path(2);
  const RunResult r =
      make_result({NodeStatus::kInMis, NodeStatus::kActive}, /*terminated=*/false);
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());
  EXPECT_EQ(report.still_active, 1u);
  EXPECT_FALSE(report.terminated);
}

TEST(Verifier, EmptyGraphIsTriviallyValid) {
  const graph::Graph g = graph::empty_graph(0);
  const RunResult r = make_result({});
  EXPECT_TRUE(verify_mis_run(g, r).valid());
}

TEST(Verifier, SizeMismatchThrows) {
  const graph::Graph g = graph::path(3);
  const RunResult r = make_result({NodeStatus::kInMis});
  EXPECT_THROW((void)verify_mis_run(g, r), std::invalid_argument);
}

TEST(Verifier, SummaryMentionsVerdictAndCounts) {
  const graph::Graph g = graph::path(2);
  const RunResult good =
      make_result({NodeStatus::kInMis, NodeStatus::kDominated});
  EXPECT_NE(verify_mis_run(g, good).summary().find("VALID"), std::string::npos);
  const RunResult bad = make_result({NodeStatus::kInMis, NodeStatus::kInMis});
  const std::string s = verify_mis_run(g, bad).summary();
  EXPECT_NE(s.find("INVALID"), std::string::npos);
  EXPECT_NE(s.find("independence_violations=1"), std::string::npos);
}

TEST(Verifier, IsValidShorthandAgrees) {
  const graph::Graph g = graph::path(2);
  EXPECT_TRUE(is_valid_mis_run(g, make_result({NodeStatus::kInMis, NodeStatus::kDominated})));
  EXPECT_FALSE(is_valid_mis_run(g, make_result({NodeStatus::kInMis, NodeStatus::kInMis})));
}

TEST(Verifier, MaximalityRequiresTermination) {
  const graph::Graph g = graph::empty_graph(1);
  RunResult r = make_result({NodeStatus::kInMis}, /*terminated=*/false);
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());  // not terminated
  EXPECT_TRUE(report.independent());
}

/// Backing storage for a hand-built sim::LaneOutcomes.
struct LanePlanes {
  graph::NodeId n = 0;
  unsigned lanes = 0;
  std::vector<sim::LaneMask> crashed, inmis, dominated;
  std::vector<sim::LaneMask> beep_planes;  ///< three planes: counts 0..6
  sim::LaneMask terminated = 0;
  std::vector<std::size_t> rounds;
  std::vector<std::uint64_t> reactivations;

  LanePlanes(graph::NodeId nodes, unsigned lane_count)
      : n(nodes),
        lanes(lane_count),
        crashed(nodes),
        inmis(nodes),
        dominated(nodes),
        beep_planes(3 * static_cast<std::size_t>(nodes)),
        rounds(lane_count),
        reactivations(lane_count) {
    // Lane l's count at v is (v * lanes + l) % 7, bit j in plane j.
    for (graph::NodeId v = 0; v < n; ++v) {
      for (unsigned l = 0; l < lanes; ++l) {
        const std::size_t count = (static_cast<std::size_t>(v) * lanes + l) % 7;
        for (unsigned j = 0; j < 3; ++j) {
          beep_planes[j * n + v] |= sim::LaneMask{(count >> j) & 1u} << l;
        }
      }
    }
    for (unsigned l = 0; l < lanes; ++l) rounds[l] = l + 1;
  }

  [[nodiscard]] sim::LaneOutcomes view() const {
    return {n, lanes, crashed, inmis, dominated, beep_planes, terminated, rounds,
            reactivations};
  }
};

void expect_lanes_match_per_lane(const graph::Graph& g, const sim::LaneOutcomes& o) {
  const std::vector<VerificationReport> lanes = verify_mis_lanes(g, o);
  const std::vector<RunResult> results = sim::detail::extract_lane_results(o);
  ASSERT_EQ(lanes.size(), o.lanes);
  for (unsigned l = 0; l < o.lanes; ++l) {
    const VerificationReport want = verify_mis_run(g, results[l]);
    const VerificationReport& got = lanes[l];
    EXPECT_EQ(got.terminated, want.terminated) << "lane " << l;
    EXPECT_EQ(got.independence_violations, want.independence_violations) << "lane " << l;
    EXPECT_EQ(got.uncovered_nodes, want.uncovered_nodes) << "lane " << l;
    EXPECT_EQ(got.still_active, want.still_active) << "lane " << l;
    EXPECT_EQ(got.crashed, want.crashed) << "lane " << l;
    EXPECT_EQ(got.mis_size, want.mis_size) << "lane " << l;
  }
}

TEST(Verifier, LanesMatchPerLaneReports) {
  // Path 0-1-2-3-4-5, one lane per row.  Fates: M in-MIS, D dominated,
  // A active, C crashed; overlapping planes resolve by precedence (crashed,
  // in-MIS, dominated): c has all three bits set (crashed), m has the MIS
  // and dominated bits (in-MIS).
  struct Lane {
    const char* fates;
    bool terminated;
    std::size_t violations, uncovered, active, crashed, mis;
  };
  const std::vector<Lane> table = {
      {"MDMDMD", true, 0, 0, 0, 0, 3},   // valid
      {"MMDMDM", true, 1, 0, 0, 0, 4},   // edge 0-1 inside the set
      {"MDDDMD", true, 0, 1, 0, 0, 2},   // node 2 dominated by nobody
      {"MDAAAA", false, 0, 0, 4, 0, 1},  // cut off mid-run
      {"MDAMDA", true, 0, 0, 2, 0, 2},   // active nodes on a terminated lane
      {"CMDCMD", true, 0, 0, 0, 2, 2},   // crashed nodes are exempt
      {"mcDcMm", true, 1, 1, 0, 2, 3},   // crashed MIS bits cover nothing
  };
  const graph::Graph g = graph::path(6);
  LanePlanes planes(6, static_cast<unsigned>(table.size()));
  for (unsigned l = 0; l < table.size(); ++l) {
    const sim::LaneMask bit = sim::LaneMask{1} << l;
    if (table[l].terminated) planes.terminated |= bit;
    for (graph::NodeId v = 0; v < 6; ++v) {
      switch (table[l].fates[v]) {
        case 'c':
          planes.inmis[v] |= bit;
          planes.dominated[v] |= bit;
          [[fallthrough]];
        case 'C':
          planes.crashed[v] |= bit;
          break;
        case 'm':
          planes.dominated[v] |= bit;
          [[fallthrough]];
        case 'M':
          planes.inmis[v] |= bit;
          break;
        case 'D':
          planes.dominated[v] |= bit;
          break;
        default:
          break;
      }
    }
  }

  const sim::LaneOutcomes o = planes.view();
  expect_lanes_match_per_lane(g, o);
  const std::vector<VerificationReport> reports = verify_mis_lanes(g, o);
  for (unsigned l = 0; l < table.size(); ++l) {
    const std::string where = std::string("lane ") + table[l].fates;
    EXPECT_EQ(reports[l].independence_violations, table[l].violations) << where;
    EXPECT_EQ(reports[l].uncovered_nodes, table[l].uncovered) << where;
    EXPECT_EQ(reports[l].still_active, table[l].active) << where;
    EXPECT_EQ(reports[l].crashed, table[l].crashed) << where;
    EXPECT_EQ(reports[l].mis_size, table[l].mis) << where;
  }
  EXPECT_TRUE(reports[0].valid());
  EXPECT_TRUE(reports[5].valid());

  EXPECT_THROW((void)verify_mis_lanes(graph::path(5), o), std::invalid_argument);

  // All 64 lanes of random, overlapping planes on a random graph.
  auto rng = support::Xoshiro256StarStar(77);
  const graph::Graph random_graph = graph::gnp(40, 0.15, rng);
  LanePlanes random_planes(40, sim::kMaxBatchLanes);
  for (graph::NodeId v = 0; v < 40; ++v) {
    random_planes.crashed[v] = rng() & rng() & rng();
    random_planes.inmis[v] = rng() & rng();
    random_planes.dominated[v] = rng() | rng();
  }
  random_planes.terminated = rng();
  expect_lanes_match_per_lane(random_graph, random_planes.view());
}

}  // namespace
}  // namespace beepmis::mis
