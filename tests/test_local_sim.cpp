#include "sim/local.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "mis/luby.hpp"

namespace beepmis::sim {
namespace {

using graph::NodeId;

/// Each node publishes its own id; in react, each records the sum of
/// neighbour values it can see, then everything joins after one round.
class EchoProtocol final : public LocalProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "echo"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
  void reset(const graph::Graph& g, support::Xoshiro256StarStar&) override {
    neighbor_sums.assign(g.node_count(), 0);
  }
  void emit(LocalContext& ctx) override {
    for (const NodeId v : ctx.active_nodes()) ctx.publish(v, v, 64);
  }
  void react(LocalContext& ctx) override {
    for (const NodeId v : ctx.active_nodes()) {
      std::uint64_t sum = 0;
      for (const NodeId w : ctx.graph().neighbors(v)) {
        if (const auto value = ctx.value_of(w)) sum += *value;
      }
      neighbor_sums[v] = sum;
      ctx.join_mis(v);
    }
  }

  std::vector<std::uint64_t> neighbor_sums;
};

/// Nobody ever transitions; exercises the round cap.
class SilentProtocol final : public LocalProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "silent"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
  void reset(const graph::Graph&, support::Xoshiro256StarStar&) override {}
  void emit(LocalContext&) override {}
  void react(LocalContext&) override {}
};

class PublishDuringReactProtocol final : public LocalProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "bad"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
  void reset(const graph::Graph&, support::Xoshiro256StarStar&) override {}
  void emit(LocalContext&) override {}
  void react(LocalContext& ctx) override { ctx.publish(0, 1); }
};

TEST(LocalSimulator, ValuesVisibleToNeighbors) {
  const graph::Graph g = graph::star(4);  // hub 0 with leaves 1..3
  LocalSimulator simulator(g);
  EchoProtocol protocol;
  const RunResult result = simulator.run(protocol, support::Xoshiro256StarStar(1));
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(protocol.neighbor_sums[0], 1u + 2u + 3u);
  EXPECT_EQ(protocol.neighbor_sums[1], 0u);  // only the hub is a neighbour
}

TEST(LocalSimulator, MessageBitsAccounted) {
  const graph::Graph g = graph::star(4);  // degrees: 3, 1, 1, 1
  LocalSimulator simulator(g);
  EchoProtocol protocol;
  const RunResult result = simulator.run(protocol, support::Xoshiro256StarStar(1));
  // One round: every node publishes 64 bits over each incident edge.
  EXPECT_EQ(result.message_bits, 64u * (3 + 1 + 1 + 1));
}

TEST(LocalSimulator, UnpublishedValueIsNullopt) {
  // SilentProtocol publishes nothing: value_of must be nullopt during the
  // run.  Verified indirectly through EchoProtocol on an edgeless graph.
  const graph::Graph g = graph::empty_graph(3);
  LocalSimulator simulator(g);
  EchoProtocol protocol;
  (void)simulator.run(protocol, support::Xoshiro256StarStar(1));
  for (const auto sum : protocol.neighbor_sums) EXPECT_EQ(sum, 0u);
}

TEST(LocalSimulator, RoundCapRespected) {
  const graph::Graph g = graph::path(3);
  LocalSimConfig config;
  config.max_rounds = 7;
  LocalSimulator simulator(g, config);
  SilentProtocol protocol;
  const RunResult result = simulator.run(protocol, support::Xoshiro256StarStar(1));
  EXPECT_FALSE(result.terminated);
  EXPECT_EQ(result.rounds, 7u);
}

TEST(LocalSimulator, PhaseViolationThrows) {
  const graph::Graph g = graph::path(2);
  LocalSimulator simulator(g);
  PublishDuringReactProtocol protocol;
  EXPECT_THROW((void)simulator.run(protocol, support::Xoshiro256StarStar(1)),
               std::logic_error);
}

TEST(LocalSimulator, EmptyGraphTerminates) {
  const graph::Graph g = graph::empty_graph(0);
  LocalSimulator simulator(g);
  SilentProtocol protocol;
  const RunResult result = simulator.run(protocol, support::Xoshiro256StarStar(1));
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.rounds, 0u);
}

/// Silent until round `expire_at`, whose react moves the run's deadline
/// into the past: the next round boundary must cancel, without any timing.
class ExpireDeadlineProtocol final : public LocalProtocol {
 public:
  ExpireDeadlineProtocol(std::shared_ptr<std::atomic<std::int64_t>> deadline,
                         std::size_t expire_at)
      : deadline_(std::move(deadline)), expire_at_(expire_at) {}
  [[nodiscard]] std::string_view name() const override { return "expire"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
  void reset(const graph::Graph&, support::Xoshiro256StarStar&) override {}
  void emit(LocalContext&) override {}
  void react(LocalContext& ctx) override {
    if (ctx.round() == expire_at_) deadline_->store(0);
  }

 private:
  std::shared_ptr<std::atomic<std::int64_t>> deadline_;
  std::size_t expire_at_;
};

TEST(LocalSimulator, DeadlineCancelsAtRoundBoundary) {
  // The run loop checks LocalSimConfig::deadline_ns at every round
  // boundary: a deadline already past cancels at round 0, one that passes
  // during round 2 cancels at round 3, and one that never passes leaves
  // the run bit-identical to a run without a deadline, also on the
  // simulator a cancellation has just aborted.
  const graph::Graph g = graph::path(6);
  auto deadline = std::make_shared<std::atomic<std::int64_t>>(0);
  LocalSimConfig config;
  config.deadline_ns = deadline;
  LocalSimulator bounded(g, config);
  const auto expect_cancelled_at = [&](LocalProtocol& protocol, const std::string& round) {
    try {
      (void)bounded.run(protocol, support::Xoshiro256StarStar(1));
      ADD_FAILURE() << "expired deadline did not cancel the run";
    } catch (const RunCancelled& e) {
      EXPECT_NE(std::string(e.what()).find("deadline expired at round " + round),
                std::string::npos)
          << e.what();
    }
  };
  SilentProtocol silent;
  expect_cancelled_at(silent, "0");
  deadline->store(std::numeric_limits<std::int64_t>::max());
  ExpireDeadlineProtocol expire(deadline, 2);
  expect_cancelled_at(expire, "3");

  deadline->store(std::numeric_limits<std::int64_t>::max());
  const graph::Graph gnp = [] {
    support::Xoshiro256StarStar rng(5);
    return graph::gnp(80, 0.08, rng);
  }();
  mis::LubyMis luby;
  const RunResult unbounded = LocalSimulator(gnp).run(luby, support::Xoshiro256StarStar(9));
  const RunResult far = bounded.run(gnp, luby, support::Xoshiro256StarStar(9));
  EXPECT_EQ(far.rounds, unbounded.rounds);
  EXPECT_EQ(far.terminated, unbounded.terminated);
  EXPECT_EQ(far.status, unbounded.status);
  EXPECT_EQ(far.message_bits, unbounded.message_bits);
}

}  // namespace
}  // namespace beepmis::sim
