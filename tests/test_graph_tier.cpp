// Memory-tier differential oracle: every simulator front-end must be
// bit-identical on an mmap-backed BMCSR graph (and on shard-local
// reordered adjacency copies) to the same run on the in-RAM CSR — the
// storage tier is an execution choice, never a results choice.  Covered
// front-ends: scalar BeepSimulator, ShardedSimulator and BatchSimulator,
// each under a plain config and a lossy+keepalive config.  All seeds fixed: a mismatch is a
// real bug, not flakiness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "cli/registry.hpp"
#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "mis/local_feedback.hpp"
#include "sim/batch.hpp"
#include "sim/beep.hpp"
#include "sim/sharded.hpp"
#include "support/rng.hpp"

namespace beepmis {
namespace {

constexpr std::uint64_t kSeed = 2026;

std::string tier_tmp_path(const std::string& name) {
  return ::testing::TempDir() + "graph_tier_" + std::to_string(::getpid()) + "_" + name;
}

void expect_identical(const sim::RunResult& a, const sim::RunResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.total_beeps, b.total_beeps) << what;
  EXPECT_EQ(a.terminated, b.terminated) << what;
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.beep_counts, b.beep_counts) << what;
}

std::vector<sim::SimConfig> tier_configs() {
  sim::SimConfig plain;
  sim::SimConfig lossy;
  lossy.beep_loss_probability = 0.05;
  lossy.mis_keepalive = true;
  return {plain, lossy};
}

/// The workload both tiers run: big enough for contention, small enough
/// for a tier-1 test.
graph::Graph ram_workload() {
  auto rng = support::Xoshiro256StarStar(kSeed);
  return graph::gnp(400, 0.03, rng);
}

class GraphTier : public ::testing::Test {
 protected:
  void SetUp() override {
    ram_ = ram_workload();
    path_ = tier_tmp_path("workload.bmcsr");
    graph::write_csr_file(ram_, path_);
    mapped_ = graph::load_csr_file(path_);
    ASSERT_TRUE(mapped_.memory_mapped());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  graph::Graph ram_;
  graph::Graph mapped_;
  std::string path_;
};

TEST_F(GraphTier, ScalarSimulatorIsTierBlind) {
  for (const sim::SimConfig& config : tier_configs()) {
    mis::LocalFeedbackMis protocol_a;
    mis::LocalFeedbackMis protocol_b;
    sim::BeepSimulator sim(config);
    const sim::RunResult on_ram =
        sim.run(ram_, protocol_a, support::Xoshiro256StarStar(kSeed));
    const sim::RunResult on_map =
        sim.run(mapped_, protocol_b, support::Xoshiro256StarStar(kSeed));
    expect_identical(on_ram, on_map, "scalar");
  }
}

TEST_F(GraphTier, ShardedSimulatorIsTierBlind) {
  for (const sim::SimConfig& base : tier_configs()) {
    for (const bool shard_local : {false, true}) {
      sim::SimConfig config = base;
      config.shard_local_adjacency = shard_local;
      mis::LocalFeedbackMis protocol_a;
      mis::LocalFeedbackMis protocol_b;
      sim::ShardedSimulator on_ram(ram_, 3, config);
      sim::ShardedSimulator on_map(mapped_, 3, config);
      expect_identical(on_ram.run(protocol_a, support::Xoshiro256StarStar(kSeed)),
                       on_map.run(protocol_b, support::Xoshiro256StarStar(kSeed)),
                       shard_local ? "sharded, shard-local" : "sharded, shared");
    }
  }
}

TEST_F(GraphTier, ShardLocalAdjacencyNeverChangesResults) {
  // The reordered local copies are a read-path optimisation only: same
  // graph, same tier, flag on vs off must agree bit for bit.
  for (const sim::SimConfig& base : tier_configs()) {
    sim::SimConfig local = base;
    local.shard_local_adjacency = true;
    for (const graph::Graph* g : {&ram_, &mapped_}) {
      mis::LocalFeedbackMis protocol_a;
      mis::LocalFeedbackMis protocol_b;
      sim::ShardedSimulator shared(*g, 4, base);
      sim::ShardedSimulator reordered(*g, 4, local);
      expect_identical(shared.run(protocol_a, support::Xoshiro256StarStar(kSeed)),
                       reordered.run(protocol_b, support::Xoshiro256StarStar(kSeed)),
                       g == &ram_ ? "ram tier" : "mmap tier");
    }
  }
}

TEST_F(GraphTier, BatchSimulatorIsTierBlind) {
  constexpr unsigned kLanes = 8;
  for (const sim::SimConfig& config : tier_configs()) {
    const mis::LocalFeedbackMis scalar;
    const auto kernel_a = scalar.make_batch_protocol();
    const auto kernel_b = scalar.make_batch_protocol();
    ASSERT_NE(kernel_a, nullptr);
    std::vector<support::Xoshiro256StarStar> rngs;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      rngs.emplace_back(kSeed + lane);
    }
    sim::BatchSimulator sim(config);
    const auto on_ram = sim.run(ram_, *kernel_a, rngs);
    const auto on_map = sim.run(mapped_, *kernel_b, rngs);
    ASSERT_EQ(on_ram.size(), on_map.size());
    for (std::size_t lane = 0; lane < on_ram.size(); ++lane) {
      expect_identical(on_ram[lane], on_map[lane], "batch lane " + std::to_string(lane));
    }
  }
}

TEST_F(GraphTier, FileFamilyLoadsTheSameWorkload) {
  cli::GraphSpec spec;
  spec.family = "file";
  spec.path = path_;
  const graph::Graph via_cli = cli::make_graph(spec);
  EXPECT_TRUE(via_cli.memory_mapped());
  ASSERT_EQ(via_cli.node_count(), ram_.node_count());
  for (graph::NodeId v = 0; v < ram_.node_count(); ++v) {
    const auto a = ram_.neighbors(v);
    const auto b = via_cli.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  }
}

TEST_F(GraphTier, StreamedFileIsTheSameWorkloadAsTheBuiltOne) {
  // End-to-end: make_graph_stream -> streamed BMCSR -> mmap == make_graph.
  cli::GraphSpec spec;
  spec.family = "gnp";
  spec.n = 400;
  spec.p = 0.03;
  spec.seed = kSeed;
  const cli::GraphStream gs = cli::make_graph_stream(spec);
  ASSERT_EQ(gs.node_count, ram_.node_count());
  const std::string streamed = tier_tmp_path("streamed.bmcsr");
  (void)graph::write_csr_file_streaming(gs.node_count, gs.stream, streamed);

  const graph::Graph mapped = graph::load_csr_file(streamed);
  mis::LocalFeedbackMis protocol_a;
  mis::LocalFeedbackMis protocol_b;
  sim::BeepSimulator sim;
  expect_identical(sim.run(ram_, protocol_a, support::Xoshiro256StarStar(kSeed)),
                   sim.run(mapped, protocol_b, support::Xoshiro256StarStar(kSeed)),
                   "streamed file vs in-RAM build");
  std::filesystem::remove(streamed);
}

}  // namespace
}  // namespace beepmis
