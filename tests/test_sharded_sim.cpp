// ShardedSimulator: the differential oracle against the scalar core.
//
// The sharded draw-order contract says a run is bit-identical to
// BeepSimulator for *every* shard count — lossless and lossy, with
// crash/wake-up faults — exactly as test_batch_sim.cpp pins lane identity
// for the batched core.  These tests sweep K in {1, 2, 4, 7} over the
// shard-capable protocol family and every fault dimension.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/schedule.hpp"
#include "mis/self_healing.hpp"
#include "sim/beep.hpp"
#include "sim/sharded.hpp"
#include "support/rng.hpp"

namespace beepmis {
namespace {

using ProtocolFactory = std::function<std::unique_ptr<sim::BeepProtocol>()>;

graph::Graph gnp_graph(graph::NodeId n, double avg_degree, std::uint64_t seed) {
  auto rng = support::Xoshiro256StarStar(seed);
  return graph::gnp(n, avg_degree / static_cast<double>(n), rng);
}

void expect_same_result(const sim::RunResult& scalar, const sim::RunResult& sharded,
                        const std::string& where) {
  EXPECT_EQ(scalar.rounds, sharded.rounds) << where;
  EXPECT_EQ(scalar.terminated, sharded.terminated) << where;
  EXPECT_EQ(scalar.total_beeps, sharded.total_beeps) << where;
  EXPECT_EQ(scalar.status == sharded.status, true) << where << ": status diverged";
  EXPECT_EQ(scalar.beep_counts == sharded.beep_counts, true)
      << where << ": beep_counts diverged";
  EXPECT_EQ(scalar.reactivations, sharded.reactivations) << where;
}

/// Runs scalar vs sharded on (graph, protocol, config, seed) for K in
/// {1, 2, 4, 7} and expects bit-identical RunResults.
void expect_shard_oracle(const graph::Graph& g, const ProtocolFactory& protocols,
                         const sim::SimConfig& config, std::uint64_t seed,
                         const std::string& label) {
  sim::BeepSimulator scalar_sim(g, config);
  const std::unique_ptr<sim::BeepProtocol> scalar_protocol = protocols();
  const sim::RunResult scalar =
      scalar_sim.run(*scalar_protocol, support::Xoshiro256StarStar(seed));
  for (const unsigned k : {1u, 2u, 4u, 7u}) {
    sim::ShardedSimulator sharded_sim(g, k, config);
    const std::unique_ptr<sim::BeepProtocol> sharded_protocol = protocols();
    const sim::RunResult sharded =
        sharded_sim.run(*sharded_protocol, support::Xoshiro256StarStar(seed));
    expect_same_result(scalar, sharded, label + " K=" + std::to_string(k));
  }
}

ProtocolFactory local_feedback_paper() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
}

ProtocolFactory local_feedback_hetero() {
  return [] {
    mis::LocalFeedbackConfig config;
    config.initial_p_low = 0.2;
    config.initial_p_high = 0.5;   // heterogeneous: reset() draws per node
    config.factor_low = 1.5;
    config.factor_high = 3.0;
    return std::make_unique<mis::LocalFeedbackMis>(config);
  };
}

ProtocolFactory global_sweep() {
  return [] {
    return std::make_unique<mis::GlobalScheduleMis>(std::make_unique<mis::SweepSchedule>());
  };
}

ProtocolFactory exact_feedback() {
  return [] { return std::make_unique<mis::ExactLocalFeedbackMis>(); };
}

// ---------------------------------------------------------------------------
// Differential oracle, lossless and lossy.

TEST(ShardedSim, OracleLosslessAllProtocols) {
  const graph::Graph g = gnp_graph(80, 6.0, 11);
  const sim::SimConfig config;
  expect_shard_oracle(g, local_feedback_paper(), config, 7, "local-feedback");
  expect_shard_oracle(g, local_feedback_hetero(), config, 7, "local-feedback-hetero");
  expect_shard_oracle(g, global_sweep(), config, 7, "global-sweep");
  expect_shard_oracle(g, exact_feedback(), config, 7, "exact-feedback");
}

TEST(ShardedSim, OracleLossyAllProtocols) {
  const graph::Graph g = gnp_graph(70, 5.0, 12);
  sim::SimConfig config;
  config.beep_loss_probability = 0.25;
  expect_shard_oracle(g, local_feedback_paper(), config, 9, "lossy local-feedback");
  expect_shard_oracle(g, global_sweep(), config, 9, "lossy global-sweep");
  expect_shard_oracle(g, exact_feedback(), config, 9, "lossy exact-feedback");
}

TEST(ShardedSim, OracleStructuredGraphs) {
  const sim::SimConfig config;
  expect_shard_oracle(graph::path(31), local_feedback_paper(), config, 3, "path");
  expect_shard_oracle(graph::star(40), local_feedback_paper(), config, 3, "star");
  expect_shard_oracle(graph::grid2d(8, 9), local_feedback_paper(), config, 3, "grid");
  expect_shard_oracle(graph::empty_graph(25), local_feedback_paper(), config, 3, "empty");
}

// ---------------------------------------------------------------------------
// Faults: wake-ups, crashes, keep-alive tails and their combinations.

TEST(ShardedSim, OracleWakeups) {
  const graph::Graph g = gnp_graph(60, 5.0, 13);
  sim::SimConfig config;
  config.wake_round.assign(60, 0);
  for (graph::NodeId v = 0; v < 60; ++v) config.wake_round[v] = v % 7;
  config.mis_keepalive = true;  // late wakers must learn they are dominated
  expect_shard_oracle(g, local_feedback_paper(), config, 17, "wakeups");
}

TEST(ShardedSim, OracleCrashes) {
  const graph::Graph g = gnp_graph(60, 5.0, 14);
  sim::SimConfig config;
  config.crash_round.assign(60, UINT32_MAX);
  for (graph::NodeId v = 0; v < 60; v += 4) config.crash_round[v] = 1 + v % 5;
  expect_shard_oracle(g, local_feedback_paper(), config, 19, "crashes");
  expect_shard_oracle(g, exact_feedback(), config, 19, "crashes exact");
}

TEST(ShardedSim, OracleKeepaliveTail) {
  const graph::Graph g = gnp_graph(60, 5.0, 15);
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.run_until_round = 40;
  expect_shard_oracle(g, local_feedback_paper(), config, 21, "keepalive tail");
}

TEST(ShardedSim, OracleKeepaliveLossyTail) {
  const graph::Graph g = gnp_graph(50, 4.0, 16);
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.run_until_round = 25;
  config.beep_loss_probability = 0.2;
  expect_shard_oracle(g, local_feedback_paper(), config, 23, "lossy keepalive tail");
}

TEST(ShardedSim, OracleChurn) {
  // The crash-a-MIS-member regime: keep-alive on, staggered wake-ups,
  // crashes after convergence (some hit MIS members, exercising the
  // cross-shard cache invalidation), plus a run_until tail.
  const graph::Graph g = gnp_graph(64, 5.0, 17);
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.run_until_round = 50;
  config.wake_round.assign(64, 0);
  config.crash_round.assign(64, UINT32_MAX);
  for (graph::NodeId v = 0; v < 64; ++v) {
    config.wake_round[v] = (v % 3 == 0) ? v % 5 : 0;
    if (v % 6 == 0) config.crash_round[v] = 12 + v % 9;
  }
  expect_shard_oracle(g, local_feedback_paper(), config, 29, "churn");
  config.beep_loss_probability = 0.15;
  expect_shard_oracle(g, local_feedback_paper(), config, 29, "lossy churn");
}

// ---------------------------------------------------------------------------
// Reuse and rebinding.

TEST(ShardedSim, RepeatedRunsAreIdentical) {
  const graph::Graph g = gnp_graph(50, 5.0, 18);
  sim::ShardedSimulator sim(g, 4);
  mis::LocalFeedbackMis protocol;
  const sim::RunResult first = sim.run(protocol, support::Xoshiro256StarStar(5));
  for (int i = 0; i < 3; ++i) {
    const sim::RunResult again = sim.run(protocol, support::Xoshiro256StarStar(5));
    expect_same_result(first, again, "rerun " + std::to_string(i));
  }
}

TEST(ShardedSim, DeadlineCancelsAtRoundBoundary) {
  // The coordinator checks SimConfig::deadline_ns at every round boundary:
  // a deadline already past cancels the run and names the round; one that
  // never passes leaves the run bit-identical to a run without a deadline,
  // also on the simulator a cancellation has just aborted.
  const graph::Graph g = gnp_graph(60, 5.0, 31);
  mis::LocalFeedbackMis protocol;
  for (const unsigned k : {1u, 3u}) {
    const std::string label = "K=" + std::to_string(k);
    const sim::RunResult unbounded =
        sim::ShardedSimulator(g, k).run(protocol, support::Xoshiro256StarStar(7));
    auto deadline = std::make_shared<std::atomic<std::int64_t>>(0);
    sim::SimConfig config;
    config.deadline_ns = deadline;
    sim::ShardedSimulator bounded(g, k, config);
    try {
      (void)bounded.run(protocol, support::Xoshiro256StarStar(7));
      ADD_FAILURE() << label << ": expired deadline did not cancel the run";
    } catch (const sim::RunCancelled& e) {
      EXPECT_NE(std::string(e.what()).find("deadline expired at round 0"), std::string::npos)
          << label << ": " << e.what();
    }
    deadline->store(std::numeric_limits<std::int64_t>::max());
    expect_same_result(unbounded, bounded.run(protocol, support::Xoshiro256StarStar(7)),
                       label + " far deadline");
  }
}

TEST(ShardedSim, RebindingRunMatchesFreshSimulators) {
  const graph::Graph a = gnp_graph(40, 4.0, 19);
  const graph::Graph b = gnp_graph(55, 6.0, 20);  // different size: full reinit
  mis::LocalFeedbackMis protocol;
  sim::ShardedSimulator reused(3, {});
  for (const graph::Graph* g : {&a, &b, &a}) {
    const sim::RunResult rebound = reused.run(*g, protocol, support::Xoshiro256StarStar(6));
    sim::ShardedSimulator fresh(*g, 3, {});
    const sim::RunResult direct = fresh.run(protocol, support::Xoshiro256StarStar(6));
    expect_same_result(direct, rebound, "rebinding");
  }
}

TEST(ShardedSim, ShardCountClampedToTinyGraph) {
  const graph::Graph g = graph::path(5);
  sim::ShardedSimulator sim(g, 64);
  EXPECT_EQ(sim.shard_count(), 5u);
  mis::LocalFeedbackMis protocol;
  sim::BeepSimulator scalar_sim(g, {});
  mis::LocalFeedbackMis scalar_protocol;
  expect_same_result(scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(4)),
                     sim.run(protocol, support::Xoshiro256StarStar(4)), "clamped");
}

// ---------------------------------------------------------------------------
// Guard rails.

TEST(ShardedSim, RejectsUnsupportedProtocol) {
  // An unknown LocalFeedbackMis subclass may carry cross-node round
  // bookkeeping the sharded core cannot see; the base typeid guard refuses
  // anything it does not recognise.  (Known subclasses — self-healing —
  // override shard_support and are exercised below.)
  class UnknownVariant final : public mis::LocalFeedbackMis {
   public:
    [[nodiscard]] std::string_view name() const override { return "unknown-variant"; }
  };
  const graph::Graph g = graph::path(8);
  sim::ShardedSimulator sim(g, 2);
  UnknownVariant protocol;
  EXPECT_EQ(protocol.shard_support().supported, false);
  EXPECT_THROW((void)sim.run(protocol, support::Xoshiro256StarStar(1)),
               std::invalid_argument);
}

TEST(ShardedSim, SelfHealingMatchesScalarIncludingReactivations) {
  // Self-healing is shard-capable.  The healing pass is draw-free and
  // per-node (each shard scans only its [node_begin, node_end) slice), and
  // reactivation counts accumulate in the per-shard mutation sinks, so a
  // sharded run must be bit-identical to the scalar run *including*
  // RunResult::reactivations.
  const graph::Graph g = gnp_graph(60, 6.0, 912);
  mis::SelfHealingLocalFeedbackMis probe;
  EXPECT_TRUE(probe.shard_support().supported);
  sim::SimConfig config;
  config.mis_keepalive = true;
  // Crash a clump of nodes after initial convergence so dominators die and
  // healing actually fires; the tail gives reactivated nodes room to join.
  config.crash_round.assign(g.node_count(),
                            std::numeric_limits<std::uint32_t>::max());
  for (graph::NodeId v = 0; v < 12; ++v) config.crash_round[v] = 18;
  config.run_until_round = 64;
  config.max_rounds = 600;
  sim::BeepSimulator scalar_sim(g, config);
  mis::SelfHealingLocalFeedbackMis scalar_protocol;
  const sim::RunResult scalar =
      scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(77));
  ASSERT_TRUE(scalar.terminated);
  for (const unsigned k : {1u, 2u, 4u}) {
    sim::ShardedSimulator sharded(g, k, config);
    mis::SelfHealingLocalFeedbackMis protocol;
    const sim::RunResult run = sharded.run(protocol, support::Xoshiro256StarStar(77));
    expect_same_result(scalar, run, "healing K=" + std::to_string(k));
  }
}

TEST(ShardedSim, RejectsAbsurdShardCount) {
  // A negative CLI value wrapped through unsigned must be a clear error,
  // not an n*(K+1) slice-index allocation and thousands of threads.
  EXPECT_THROW(sim::ShardedSimulator(sim::ShardedSimulator::kMaxShards + 1, {}),
               std::invalid_argument);
  EXPECT_THROW(sim::ShardedSimulator(static_cast<unsigned>(-1), {}),
               std::invalid_argument);
  EXPECT_NO_THROW(sim::ShardedSimulator(sim::ShardedSimulator::kMaxShards, {}));
}

TEST(ShardedSim, RejectsTraceRecording) {
  sim::SimConfig config;
  config.record_trace = true;
  EXPECT_THROW(sim::ShardedSimulator(2, config), std::invalid_argument);
}

TEST(ShardedSim, UnboundSimulatorThrows) {
  sim::ShardedSimulator unbound(3, {});
  mis::LocalFeedbackMis protocol;
  EXPECT_THROW((void)unbound.run(protocol, support::Xoshiro256StarStar(1)),
               std::logic_error);
}

TEST(ShardedSim, ProtocolErrorIsCatchableAtAnyShardCount) {
  // A protocol violating the context contract must surface as the same
  // catchable logic_error regardless of worker count — the run_workers
  // exception capture plus the barrier drop-out path (a failing lane
  // arrives-and-drops so the others cannot deadlock).
  class OutOfRangeBeeper final : public sim::BeepProtocol {
   public:
    [[nodiscard]] std::string_view name() const override { return "out-of-range"; }
    [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
    [[nodiscard]] sim::ShardSupport shard_support() const override {
      return {true, {0}};
    }
    void reset(const graph::Graph&, support::Xoshiro256StarStar&) override {}
    void emit(sim::BeepContext& ctx) override {
      // Beep on behalf of a node the lane does not own: node 0 from every
      // lane.  The lane owning node 0 succeeds; any other lane must get
      // the shard-range logic_error.
      if (!ctx.active_nodes().empty()) ctx.beep(0);
    }
    void react(sim::BeepContext&) override {}
  };
  const graph::Graph g = graph::path(12);
  for (const unsigned k : {2u, 4u}) {
    sim::ShardedSimulator sim(g, k);
    OutOfRangeBeeper protocol;
    EXPECT_THROW((void)sim.run(protocol, support::Xoshiro256StarStar(1)),
                 std::logic_error)
        << "K=" << k;
  }
}

// ---------------------------------------------------------------------------
// Trial-runner integration: TrialStats identity across shard counts.

void expect_identical_trial_stats(const harness::TrialStats& a,
                                  const harness::TrialStats& b, const std::string& where) {
  EXPECT_EQ(a.trials, b.trials) << where;
  EXPECT_EQ(a.terminated, b.terminated) << where;
  EXPECT_EQ(a.valid, b.valid) << where;
  EXPECT_EQ(a.independence_violations, b.independence_violations) << where;
  EXPECT_EQ(a.uncovered_nodes, b.uncovered_nodes) << where;
  const auto expect_identical = [&](const support::RunningStats& x,
                                    const support::RunningStats& y) {
    EXPECT_EQ(x.count(), y.count()) << where;
    EXPECT_DOUBLE_EQ(x.mean(), y.mean()) << where;
    EXPECT_DOUBLE_EQ(x.variance(), y.variance()) << where;
  };
  expect_identical(a.rounds, b.rounds);
  expect_identical(a.beeps_per_node, b.beeps_per_node);
  expect_identical(a.max_beeps_any_node, b.max_beeps_any_node);
  expect_identical(a.mis_size, b.mis_size);
  expect_identical(a.message_bits, b.message_bits);
}

harness::GraphFactory runner_gnp(graph::NodeId n, double avg_degree) {
  return [n, avg_degree](support::Xoshiro256StarStar& rng) {
    return graph::gnp(n, avg_degree / static_cast<double>(n), rng);
  };
}

TEST(ShardedRunner, IdenticalStatsAcrossShardCounts) {
  // The same trial set through the scalar path and explicit shard counts
  // must aggregate to bit-identical TrialStats (under loss + keep-alive,
  // so every frontier path is exercised).
  harness::TrialConfig scalar;
  scalar.trials = 6;
  scalar.base_seed = 0xabcd;
  scalar.threads = 2;
  scalar.shards = 1;  // never shard
  scalar.sim.beep_loss_probability = 0.15;
  scalar.sim.mis_keepalive = true;
  scalar.sim.max_rounds = 400;
  const harness::TrialStats base = harness::run_beep_trials(
      runner_gnp(48, 5.0), [] { return std::make_unique<mis::LocalFeedbackMis>(); },
      scalar);
  for (const unsigned k : {2u, 5u}) {
    harness::TrialConfig sharded = scalar;
    sharded.shards = k;
    const harness::TrialStats stats = harness::run_beep_trials(
        runner_gnp(48, 5.0), [] { return std::make_unique<mis::LocalFeedbackMis>(); },
        sharded);
    expect_identical_trial_stats(base, stats, "shards=" + std::to_string(k));
  }
}

TEST(ShardedRunner, AutoShardsSingleLargeRunBitIdentically) {
  // trials == 1, protocol shard-capable, n at the auto-shard threshold,
  // several threads available -> the runner auto-shards, and the stats
  // match the scalar run exactly.
  constexpr auto kNodes = static_cast<graph::NodeId>(harness::kAutoShardMinNodes);
  harness::TrialConfig scalar;
  scalar.trials = 1;
  scalar.base_seed = 0x51ab;
  scalar.threads = 4;
  scalar.shards = 1;  // never shard
  const harness::TrialStats base = harness::run_beep_trials(
      runner_gnp(kNodes, 6.0), [] { return std::make_unique<mis::LocalFeedbackMis>(); },
      scalar);
  harness::TrialConfig autoshard = scalar;
  autoshard.shards = 0;
  const harness::TrialStats stats = harness::run_beep_trials(
      runner_gnp(kNodes, 6.0), [] { return std::make_unique<mis::LocalFeedbackMis>(); },
      autoshard);
  expect_identical_trial_stats(base, stats, "auto-shard");
}

TEST(ShardedRunner, UnsupportedProtocolFallsBackToScalar) {
  // Self-healing has no shard support; an explicit shard request silently
  // uses the scalar path (results are identical either way, matching the
  // batched path's silent-switch convention).
  harness::TrialConfig config;
  config.trials = 2;
  config.base_seed = 77;
  config.threads = 1;
  config.sim.mis_keepalive = true;
  config.sim.run_until_round = 30;
  const harness::TrialStats base = harness::run_beep_trials(
      runner_gnp(40, 4.0),
      [] { return std::make_unique<mis::SelfHealingLocalFeedbackMis>(); }, config);
  harness::TrialConfig sharded = config;
  sharded.shards = 3;
  const harness::TrialStats stats = harness::run_beep_trials(
      runner_gnp(40, 4.0),
      [] { return std::make_unique<mis::SelfHealingLocalFeedbackMis>(); }, sharded);
  expect_identical_trial_stats(base, stats, "fallback");
}

}  // namespace
}  // namespace beepmis
