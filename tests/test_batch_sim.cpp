// Batched-lanes contract tests: lane l of a BatchSimulator run must be
// bit-identical to a scalar BeepSimulator run of the same protocol with the
// same RNG, and the harness's batched fast path must produce TrialStats
// identical to the scalar trial loop.  See src/sim/README.md ("Batched
// lanes") for the contract these pins protect.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/runner.hpp"
#include "exp/stats_io.hpp"
#include "graph/generators.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/local_feedback_batch.hpp"
#include "mis/schedule.hpp"
#include "mis/self_healing.hpp"
#include "mis/self_healing_batch.hpp"
#include "sim/batch.hpp"
#include "sim/beep.hpp"
#include "sim/dense_ref.hpp"

namespace beepmis {
namespace {

void expect_identical_run(const sim::RunResult& scalar, const sim::RunResult& lane,
                          const char* what) {
  EXPECT_EQ(scalar.rounds, lane.rounds) << what;
  EXPECT_EQ(scalar.total_beeps, lane.total_beeps) << what;
  EXPECT_EQ(scalar.terminated, lane.terminated) << what;
  EXPECT_EQ(scalar.message_bits, lane.message_bits) << what;
  EXPECT_EQ(scalar.status, lane.status) << what;
  EXPECT_EQ(scalar.beep_counts, lane.beep_counts) << what;
  EXPECT_EQ(scalar.reactivations, lane.reactivations) << what;
}

/// Runs `lanes` batched seeds of `batch_protocol` and the matching scalar
/// runs of `scalar_protocol` and expects bit-identical per-lane results.
/// Works for any (scalar, batched-kernel) protocol pair.
void expect_pair_matches(const graph::Graph& g, const sim::SimConfig& config,
                         unsigned lanes, std::uint64_t seed,
                         sim::BeepProtocol& scalar_protocol,
                         sim::BatchProtocol& batch_protocol) {
  sim::BeepSimulator scalar_sim(g, config);
  sim::BatchSimulator batch_sim(config);

  std::vector<support::Xoshiro256StarStar> rngs;
  for (unsigned l = 0; l < lanes; ++l) {
    rngs.push_back(support::Xoshiro256StarStar(seed + l));
  }
  const std::vector<sim::RunResult> batch = batch_sim.run(g, batch_protocol, rngs);
  ASSERT_EQ(batch.size(), lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    const sim::RunResult scalar =
        scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(seed + l));
    expect_identical_run(scalar, batch[l],
                         (std::string(scalar_protocol.name()) + " lane " +
                          std::to_string(l)).c_str());
  }
}

/// Convenience: the kernel comes from the scalar protocol itself, i.e. the
/// exact wiring harness::run_beep_trials uses.
void expect_protocol_matches(const graph::Graph& g, const sim::SimConfig& config,
                             unsigned lanes, std::uint64_t seed,
                             sim::BeepProtocol& scalar_protocol) {
  const std::unique_ptr<sim::BatchProtocol> batch = scalar_protocol.make_batch_protocol();
  ASSERT_NE(batch, nullptr) << scalar_protocol.name();
  expect_pair_matches(g, config, lanes, seed, scalar_protocol, *batch);
}

/// Local-feedback pair (the PR-2 coverage).
void expect_batch_matches_scalar(const graph::Graph& g, const sim::SimConfig& config,
                                 unsigned lanes, std::uint64_t seed,
                                 const mis::LocalFeedbackConfig& protocol_config =
                                     mis::LocalFeedbackConfig::paper()) {
  mis::LocalFeedbackMis scalar_protocol(protocol_config);
  mis::BatchLocalFeedbackMis batch_protocol(protocol_config);
  expect_pair_matches(g, config, lanes, seed, scalar_protocol, batch_protocol);
}

sim::SimConfig faulty_config(graph::NodeId n, double loss) {
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.beep_loss_probability = loss;
  config.run_until_round = 30;
  config.max_rounds = 400;
  config.wake_round.assign(n, 0);
  config.crash_round.assign(n, UINT32_MAX);
  for (graph::NodeId v = 0; v < n; ++v) config.wake_round[v] = (v * 7) % 5;
  config.crash_round[n / 7] = 4;
  config.crash_round[n / 3] = 8;
  config.crash_round[n / 2] = 2;
  return config;
}

TEST(BatchSim, LanesMatchScalarLossless) {
  auto rng = support::Xoshiro256StarStar(7);
  const graph::Graph g = graph::gnp(80, 0.08, rng);
  for (const unsigned lanes : {1u, 7u, 64u}) {
    expect_batch_matches_scalar(g, sim::SimConfig{}, lanes, 1000 + lanes);
  }
}

TEST(BatchSim, LanesMatchScalarLossy) {
  auto rng = support::Xoshiro256StarStar(8);
  const graph::Graph g = graph::gnp(80, 0.08, rng);
  sim::SimConfig config;
  config.beep_loss_probability = 0.3;
  config.max_rounds = 400;
  for (const unsigned lanes : {1u, 7u, 64u}) {
    expect_batch_matches_scalar(g, config, lanes, 2000 + lanes);
  }
}

TEST(BatchSim, LanesMatchScalarWithCrashWakeupKeepalive) {
  auto rng = support::Xoshiro256StarStar(9);
  const graph::Graph g = graph::gnp(84, 0.07, rng);
  for (const unsigned lanes : {1u, 7u, 64u}) {
    expect_batch_matches_scalar(g, faulty_config(84, 0.0), lanes, 3000 + lanes);
    expect_batch_matches_scalar(g, faulty_config(84, 0.15), lanes, 4000 + lanes);
  }
}

TEST(BatchSim, LanesMatchScalarHeterogeneousConfig) {
  // Heterogeneous feedback factors / initial probabilities take the
  // general double path (reset draws per lane) instead of the dyadic
  // exponent fast path; both must stay lane-exact.
  auto rng = support::Xoshiro256StarStar(10);
  const graph::Graph g = graph::gnp(60, 0.1, rng);
  mis::LocalFeedbackConfig hetero;
  hetero.initial_p_low = 0.25;
  hetero.initial_p_high = 0.5;
  hetero.factor_low = 1.5;
  hetero.factor_high = 3.0;
  for (const unsigned lanes : {1u, 7u, 64u}) {
    expect_batch_matches_scalar(g, sim::SimConfig{}, lanes, 5000 + lanes, hetero);
  }
}

TEST(BatchSim, NonDyadicHomogeneousConfigMatchesScalar) {
  // Homogeneous but not a power-of-two probability / factor-2 config:
  // exercises the general path's uniform-factor branch.
  auto rng = support::Xoshiro256StarStar(11);
  const graph::Graph g = graph::gnp(60, 0.1, rng);
  mis::LocalFeedbackConfig config;
  config.initial_p_low = config.initial_p_high = 0.3;
  config.factor_low = config.factor_high = 3.0;
  config.max_p = 0.4;
  expect_batch_matches_scalar(g, sim::SimConfig{}, 32, 6000, config);
}

// --- GlobalScheduleMis lanes ------------------------------------------------

TEST(BatchSim, GlobalScheduleLanesMatchScalarLossless) {
  auto rng = support::Xoshiro256StarStar(20);
  const graph::Graph g = graph::gnp(80, 0.08, rng);
  for (const unsigned lanes : {1u, 7u, 64u}) {
    mis::GlobalScheduleMis scalar = mis::make_global_sweep_mis();
    expect_protocol_matches(g, sim::SimConfig{}, lanes, 7000 + lanes, scalar);
  }
}

TEST(BatchSim, GlobalScheduleLanesMatchScalarLossy) {
  auto rng = support::Xoshiro256StarStar(21);
  const graph::Graph g = graph::gnp(80, 0.08, rng);
  sim::SimConfig config;
  config.beep_loss_probability = 0.3;
  config.max_rounds = 400;
  for (const unsigned lanes : {1u, 7u, 64u}) {
    mis::GlobalScheduleMis scalar = mis::make_global_sweep_mis();
    expect_protocol_matches(g, config, lanes, 7100 + lanes, scalar);
  }
}

TEST(BatchSim, GlobalScheduleLanesMatchScalarWithCrashWakeupKeepalive) {
  auto rng = support::Xoshiro256StarStar(22);
  const graph::Graph g = graph::gnp(84, 0.07, rng);
  for (const unsigned lanes : {1u, 7u, 64u}) {
    mis::GlobalScheduleMis sweep = mis::make_global_sweep_mis();
    expect_protocol_matches(g, faulty_config(84, 0.0), lanes, 7200 + lanes, sweep);
    mis::GlobalScheduleMis increasing =
        mis::make_global_increasing_mis(g.max_degree(), g.node_count());
    expect_protocol_matches(g, faulty_config(84, 0.15), lanes, 7300 + lanes, increasing);
  }
}

// --- ExactLocalFeedbackMis lanes --------------------------------------------

TEST(BatchSim, ExactFeedbackLanesMatchScalarLossless) {
  auto rng = support::Xoshiro256StarStar(23);
  const graph::Graph g = graph::gnp(80, 0.08, rng);
  mis::ExactLocalFeedbackMis scalar;
  for (const unsigned lanes : {1u, 7u, 64u}) {
    expect_protocol_matches(g, sim::SimConfig{}, lanes, 7400 + lanes, scalar);
  }
}

TEST(BatchSim, ExactFeedbackLanesMatchScalarLossy) {
  auto rng = support::Xoshiro256StarStar(24);
  const graph::Graph g = graph::gnp(80, 0.08, rng);
  sim::SimConfig config;
  config.beep_loss_probability = 0.3;
  config.max_rounds = 400;
  mis::ExactLocalFeedbackMis scalar;
  for (const unsigned lanes : {1u, 7u, 64u}) {
    expect_protocol_matches(g, config, lanes, 7500 + lanes, scalar);
  }
}

TEST(BatchSim, ExactFeedbackLanesMatchScalarWithCrashWakeupKeepalive) {
  auto rng = support::Xoshiro256StarStar(25);
  const graph::Graph g = graph::gnp(84, 0.07, rng);
  mis::ExactLocalFeedbackMis scalar;
  for (const unsigned lanes : {1u, 7u, 64u}) {
    expect_protocol_matches(g, faulty_config(84, 0.0), lanes, 7600 + lanes, scalar);
    expect_protocol_matches(g, faulty_config(84, 0.15), lanes, 7700 + lanes, scalar);
  }
}

TEST(BatchSim, ExactFeedbackMatchesDyadicLocalFeedbackLanes) {
  // Definition 1's exponent protocol and the floating-point local-feedback
  // protocol compute identical dyadic probabilities under the paper config;
  // their batched kernels must agree the same way the scalar pair does
  // (tests/test_exact_feedback.cpp pins the scalar equivalence).
  auto rng = support::Xoshiro256StarStar(26);
  const graph::Graph g = graph::gnp(60, 0.1, rng);
  mis::ExactLocalFeedbackMis exact;
  mis::BatchLocalFeedbackMis dyadic_kernel;  // paper config -> dyadic path
  expect_pair_matches(g, sim::SimConfig{}, 64, 7800, exact, dyadic_kernel);
}

// --- Self-healing lanes -----------------------------------------------------

/// Maintenance scenario: keep-alive on, staggered wake-ups, targeted
/// crashes after initial convergence so dominators disappear and healing
/// reactivations actually fire, plus a run_until tail.
sim::SimConfig healing_config(graph::NodeId n, double loss) {
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.beep_loss_probability = loss;
  config.run_until_round = 48;
  config.max_rounds = 600;
  config.wake_round.assign(n, 0);
  for (graph::NodeId v = 0; v < n; ++v) config.wake_round[v] = (v * 5) % 3;
  config.crash_round.assign(n, UINT32_MAX);
  config.crash_round[n / 5] = 8;
  config.crash_round[n / 2] = 12;
  config.crash_round[(3 * n) / 4] = 16;
  config.crash_round[n - 2] = 20;
  return config;
}

TEST(BatchSim, SelfHealingLanesMatchScalar) {
  // Sparse graph so many dominated nodes have a single dominator: crashing
  // it silences them and the healing pass must re-enter them into the
  // frontier — in exactly the lanes where that node had joined the MIS.
  auto rng = support::Xoshiro256StarStar(27);
  const graph::Graph g = graph::gnp(80, 0.03, rng);
  for (const unsigned lanes : {1u, 7u, 64u}) {
    mis::SelfHealingLocalFeedbackMis scalar;
    expect_protocol_matches(g, healing_config(80, 0.0), lanes, 8000 + lanes, scalar);
    expect_protocol_matches(g, healing_config(80, 0.15), lanes, 8100 + lanes, scalar);
  }
}

TEST(BatchSim, SelfHealingThresholdOneMatchesScalar) {
  // threshold = 1 reactivates on the first silent round — the most
  // reactivation-heavy setting.
  auto rng = support::Xoshiro256StarStar(28);
  const graph::Graph g = graph::gnp(72, 0.04, rng);
  mis::SelfHealingConfig cfg;
  cfg.silence_threshold = 1;
  mis::SelfHealingLocalFeedbackMis scalar(cfg);
  expect_protocol_matches(g, healing_config(72, 0.0), 64, 8200, scalar);
}

TEST(BatchSim, SelfHealingHeterogeneousBaseMatchesScalar) {
  // Healing on top of the general (non-dyadic) probability path: the
  // probability reset must go through the double representation.
  auto rng = support::Xoshiro256StarStar(29);
  const graph::Graph g = graph::gnp(60, 0.05, rng);
  mis::SelfHealingConfig cfg;
  cfg.base.initial_p_low = 0.25;
  cfg.base.initial_p_high = 0.5;
  cfg.base.factor_low = 1.5;
  cfg.base.factor_high = 3.0;
  mis::SelfHealingLocalFeedbackMis scalar(cfg);
  expect_protocol_matches(g, healing_config(60, 0.0), 64, 8300, scalar);
}

TEST(BatchSim, SelfHealingReactivationCountsMatchScalar) {
  // The batched kernel's per-lane reactivation counters must equal the
  // scalar protocol's total for the same seed — and the scenario must
  // actually heal (nonzero total), or the test would pass vacuously.
  auto rng = support::Xoshiro256StarStar(30);
  const graph::Graph g = graph::gnp(80, 0.03, rng);
  const sim::SimConfig config = healing_config(80, 0.0);
  const unsigned lanes = 64;

  mis::BatchSelfHealingMis kernel;
  sim::BatchSimulator batch_sim(config);
  std::vector<support::Xoshiro256StarStar> rngs;
  for (unsigned l = 0; l < lanes; ++l) rngs.push_back(support::Xoshiro256StarStar(500 + l));
  const std::vector<sim::RunResult> batch = batch_sim.run(g, kernel, rngs);
  ASSERT_EQ(batch.size(), lanes);

  std::size_t total = 0;
  sim::BeepSimulator scalar_sim(g, config);
  for (unsigned l = 0; l < lanes; ++l) {
    mis::SelfHealingLocalFeedbackMis scalar;
    const sim::RunResult r = scalar_sim.run(scalar, support::Xoshiro256StarStar(500 + l));
    expect_identical_run(r, batch[l], "healing lane");
    EXPECT_EQ(r.reactivations, batch[l].reactivations) << "lane " << l;
    total += static_cast<std::size_t>(batch[l].reactivations);
  }
  EXPECT_GT(total, 0u);
}

TEST(BatchSim, ReactivateGuardsInvalidLanes) {
  // ctx.reactivate must reject lanes where the node is not dominated; a
  // kernel bug here would silently corrupt lane state.
  class ReactivateAbuser final : public sim::BatchProtocol {
   public:
    [[nodiscard]] std::string_view name() const override { return "abuser"; }
    [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
    void reset(const graph::Graph&, std::span<support::Xoshiro256StarStar>) override {}
    void emit(sim::BatchContext&) override {}
    void react(sim::BatchContext& ctx) override { ctx.reactivate(0, 1); }
  };
  const graph::Graph g = graph::path(4);
  ReactivateAbuser protocol;
  sim::BatchSimulator simulator{sim::SimConfig{}};
  std::vector<support::Xoshiro256StarStar> rngs;
  rngs.push_back(support::Xoshiro256StarStar(1));
  EXPECT_THROW((void)simulator.run(g, protocol, std::move(rngs)), std::logic_error);
}

TEST(BatchSim, ScratchReuseAcrossRunsIsExact) {
  // A rerun on the same BatchSimulator instance (planes and dirty lists
  // recycled) must match a run on a fresh instance bit-for-bit.
  auto rng = support::Xoshiro256StarStar(12);
  const graph::Graph g = graph::gnp(70, 0.09, rng);
  const sim::SimConfig config = faulty_config(70, 0.2);
  mis::BatchLocalFeedbackMis protocol;
  sim::BatchSimulator reused(config);
  auto make_rngs = [] {
    std::vector<support::Xoshiro256StarStar> rngs;
    for (unsigned l = 0; l < 64; ++l) rngs.push_back(support::Xoshiro256StarStar(77 + l));
    return rngs;
  };
  const auto first = reused.run(g, protocol, make_rngs());
  const auto second = reused.run(g, protocol, make_rngs());
  for (unsigned l = 0; l < 64; ++l) {
    expect_identical_run(first[l], second[l], "rerun lane");
  }
}

// Golden pin of one batched run (path(8), keep-alive, staggered wake-ups, a
// crashed node, run_until tail, 7 lanes seeded 42..48).  Captured from the
// scalar core — which these literals also pin transitively, since the
// identity tests above tie the two cores together.  A diff here means the
// determinism contract changed; update deliberately and say so in review.
TEST(BatchSim, GoldenBatchedLanePin) {
  const graph::Graph g = graph::path(8);
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.run_until_round = 12;
  config.wake_round = {0, 1, 0, 2, 0, 1, 0, 0};
  config.crash_round.assign(8, UINT32_MAX);
  config.crash_round[2] = 4;

  mis::BatchLocalFeedbackMis protocol;
  sim::BatchSimulator simulator(config);
  std::vector<support::Xoshiro256StarStar> rngs;
  for (unsigned l = 0; l < 7; ++l) rngs.push_back(support::Xoshiro256StarStar(42 + l));
  const std::vector<sim::RunResult> results = simulator.run(g, protocol, rngs);
  ASSERT_EQ(results.size(), 7u);

  using S = sim::NodeStatus;
  const sim::RunResult& lane0 = results[0];
  EXPECT_EQ(lane0.rounds, 12u);
  EXPECT_EQ(lane0.total_beeps, 4u);
  EXPECT_TRUE(lane0.terminated);
  EXPECT_EQ(lane0.status,
            (std::vector<S>{S::kInMis, S::kDominated, S::kCrashed, S::kDominated,
                            S::kInMis, S::kDominated, S::kInMis, S::kDominated}));
  EXPECT_EQ(lane0.beep_counts, (std::vector<std::uint32_t>{1, 0, 1, 0, 1, 0, 1, 0}));
  EXPECT_EQ(lane0.mis(), (std::vector<graph::NodeId>{0, 4, 6}));

  const sim::RunResult& lane6 = results[6];
  EXPECT_EQ(lane6.rounds, 12u);
  EXPECT_EQ(lane6.total_beeps, 8u);
  EXPECT_TRUE(lane6.terminated);
  EXPECT_EQ(lane6.status,
            (std::vector<S>{S::kDominated, S::kInMis, S::kCrashed, S::kDominated,
                            S::kInMis, S::kDominated, S::kDominated, S::kInMis}));
  EXPECT_EQ(lane6.beep_counts, (std::vector<std::uint32_t>{2, 3, 0, 1, 1, 0, 0, 1}));
  EXPECT_EQ(lane6.mis(), (std::vector<graph::NodeId>{1, 4, 7}));
}

TEST(BatchSim, RejectsUnsupportedConfigurations) {
  sim::SimConfig trace_config;
  trace_config.record_trace = true;
  EXPECT_THROW(sim::BatchSimulator{trace_config}, std::invalid_argument);

  const graph::Graph g = graph::path(4);
  mis::BatchLocalFeedbackMis protocol;
  sim::BatchSimulator simulator{sim::SimConfig{}};
  EXPECT_THROW((void)simulator.run(g, protocol, {}), std::invalid_argument);
  std::vector<support::Xoshiro256StarStar> too_many(65, support::Xoshiro256StarStar(1));
  EXPECT_THROW((void)simulator.run(g, protocol, std::move(too_many)),
               std::invalid_argument);
}

TEST(BatchSim, BatchKernelAvailability) {
  // Every shipped protocol of the family is batch-capable; an *unknown*
  // LocalFeedbackMis subclass must still not silently inherit the base
  // kernel (its behaviour may differ — the typeid guard catches it).
  const mis::LocalFeedbackMis base;
  EXPECT_NE(base.make_batch_protocol(), nullptr);
  const mis::SelfHealingLocalFeedbackMis healing;
  EXPECT_NE(healing.make_batch_protocol(), nullptr);
  const mis::GlobalScheduleMis global = mis::make_global_sweep_mis();
  EXPECT_NE(global.make_batch_protocol(), nullptr);
  const mis::ExactLocalFeedbackMis exact;
  EXPECT_NE(exact.make_batch_protocol(), nullptr);

  class TweakedLocalFeedback : public mis::LocalFeedbackMis {
   public:
    [[nodiscard]] std::string_view name() const override { return "tweaked"; }
  };
  const TweakedLocalFeedback tweaked;
  EXPECT_EQ(tweaked.make_batch_protocol(), nullptr);
}

// --- Harness fast path ----------------------------------------------------

harness::GraphFactory shared_gnp(graph::NodeId n) {
  return [n](support::Xoshiro256StarStar& rng) { return graph::gnp(n, 0.05, rng); };
}

harness::BeepProtocolFactory local_feedback() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
}

/// Exact TrialStats identity: the framed stats_io payload carries every
/// aggregate as its IEEE-754 bit pattern, so equal payloads mean
/// bit-identical fields.
void expect_identical_stats(const harness::TrialStats& a, const harness::TrialStats& b) {
  EXPECT_EQ(harness::format_trial_stats(a), harness::format_trial_stats(b));
}

TEST(BatchRunner, BatchedTrialStatsIdenticalToScalar) {
  // 100 trials (one full batch + a 36-lane partial batch) under loss and
  // keep-alive; the batched fast path must reproduce the scalar TrialStats
  // exactly, for one and for several worker threads.
  harness::TrialConfig batched;
  batched.trials = 100;
  batched.base_seed = 0xbadcafe;
  batched.threads = 1;
  batched.shared_graph = true;
  batched.sim.beep_loss_probability = 0.2;
  batched.sim.mis_keepalive = true;
  batched.sim.max_rounds = 500;

  harness::TrialConfig scalar = batched;
  scalar.allow_batched = false;

  harness::TrialConfig batched_mt = batched;
  batched_mt.threads = 4;

  const harness::TrialStats s = run_beep_trials(shared_gnp(60), local_feedback(), scalar);
  const harness::TrialStats b = run_beep_trials(shared_gnp(60), local_feedback(), batched);
  const harness::TrialStats bmt =
      run_beep_trials(shared_gnp(60), local_feedback(), batched_mt);
  expect_identical_stats(s, b);
  expect_identical_stats(s, bmt);
}

/// Scalar-vs-batched-vs-multithreaded TrialStats identity for one protocol
/// factory — the contract the auto-batching runner must keep for every
/// newly batched lane.
void expect_runner_identity(const harness::BeepProtocolFactory& protocols,
                            harness::TrialConfig batched) {
  batched.threads = 1;
  batched.shared_graph = true;
  harness::TrialConfig scalar = batched;
  scalar.allow_batched = false;
  harness::TrialConfig batched_mt = batched;
  batched_mt.threads = 4;

  const harness::TrialStats s = run_beep_trials(shared_gnp(60), protocols, scalar);
  const harness::TrialStats b = run_beep_trials(shared_gnp(60), protocols, batched);
  const harness::TrialStats bmt = run_beep_trials(shared_gnp(60), protocols, batched_mt);
  expect_identical_stats(s, b);
  expect_identical_stats(s, bmt);
}

TEST(BatchRunner, GlobalScheduleTrialStatsIdenticalToScalar) {
  harness::TrialConfig config;
  config.trials = 100;
  config.base_seed = 0x10ba1;
  expect_runner_identity([] { return std::make_unique<mis::GlobalScheduleMis>(
                                  std::make_unique<mis::SweepSchedule>()); },
                         config);
}

TEST(BatchRunner, ExactFeedbackTrialStatsIdenticalToScalar) {
  harness::TrialConfig config;
  config.trials = 100;
  config.base_seed = 0xeac7;
  config.sim.beep_loss_probability = 0.2;
  config.sim.mis_keepalive = true;
  config.sim.max_rounds = 500;
  expect_runner_identity([] { return std::make_unique<mis::ExactLocalFeedbackMis>(); },
                         config);
}

TEST(BatchRunner, SelfHealingTrialStatsIdenticalToScalar) {
  harness::TrialConfig config;
  config.trials = 100;
  config.base_seed = 0x4ea1;
  config.sim.mis_keepalive = true;
  config.sim.run_until_round = 40;
  config.sim.max_rounds = 600;
  config.sim.crash_round.assign(60, UINT32_MAX);
  config.sim.crash_round[10] = 8;
  config.sim.crash_round[30] = 12;
  config.sim.crash_round[50] = 16;
  expect_runner_identity([] { return std::make_unique<mis::SelfHealingLocalFeedbackMis>(); },
                         config);
}

TEST(BatchRunner, LosslessSweepIdenticalToScalar) {
  harness::TrialConfig batched;
  batched.trials = 65;  // 64-lane batch + 1-lane batch
  batched.base_seed = 31;
  batched.shared_graph = true;
  harness::TrialConfig scalar = batched;
  scalar.allow_batched = false;
  const harness::TrialStats s = run_beep_trials(shared_gnp(50), local_feedback(), scalar);
  const harness::TrialStats b = run_beep_trials(shared_gnp(50), local_feedback(), batched);
  expect_identical_stats(s, b);
}

TEST(BatchRunner, RoundCapLanesIdenticalToScalar) {
  // A two-round cap stops lanes with nodes still active: non-terminated,
  // invalid records must come out of the batched path exactly as scalar.
  harness::TrialConfig config;
  config.trials = 100;
  config.base_seed = 0xcab;
  config.sim.max_rounds = 2;
  expect_runner_identity(local_feedback(), config);

  config.threads = 1;
  config.shared_graph = true;
  const harness::TrialStats b = run_beep_trials(shared_gnp(60), local_feedback(), config);
  EXPECT_EQ(b.trials, 100u);
  EXPECT_LT(b.terminated, b.trials);
  EXPECT_LT(b.valid, b.trials);
}

// --- Seed-path reference oracle -------------------------------------------

TEST(DenseReference, MatchesFrontierCoreUnderFaults) {
  // The preserved seed core (dense_ref.hpp) and the frontier core are pure
  // functions of (graph, protocol, seed) with identical draw order; the
  // dense-row perf comparison in bench_frontier relies on this equality.
  auto rng = support::Xoshiro256StarStar(13);
  const graph::Graph g = graph::gnp(72, 0.09, rng);
  for (const double loss : {0.0, 0.25}) {
    const sim::SimConfig config = faulty_config(72, loss);
    mis::LocalFeedbackMis protocol;
    sim::DenseReferenceSimulator dense(g, config);
    const sim::RunResult a = dense.run_dense(protocol, support::Xoshiro256StarStar(99));
    sim::BeepSimulator frontier(g, config);
    const sim::RunResult b = frontier.run(protocol, support::Xoshiro256StarStar(99));
    expect_identical_run(a, b, loss == 0.0 ? "lossless" : "lossy");
  }
}

}  // namespace
}  // namespace beepmis
