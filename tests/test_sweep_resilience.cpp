// Crash-safe sweep coverage (src/exp/README.md, "Crash-safe sweeps"):
// journal round-trip and whole-file rejection, the kill-and-resume
// differential oracle (resumed == one-shot, bit for bit, across thread
// counts and rng modes), budget truncation, and the chaos harness for
// per-trial fault isolation (retry, quarantine, cooperative timeout).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/luby.hpp"
#include "mis/verifier.hpp"
#include "sim/beep.hpp"
#include "sim/local.hpp"
#include "support/rng.hpp"

namespace beepmis::harness {
namespace {

// --- bit-exact comparison helpers ---------------------------------------

void expect_bits_equal(const support::RunningStats& a, const support::RunningStats& b,
                       const char* what) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.mean), std::bit_cast<std::uint64_t>(sb.mean))
      << what << " mean";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.m2), std::bit_cast<std::uint64_t>(sb.m2))
      << what << " m2";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.min), std::bit_cast<std::uint64_t>(sb.min))
      << what << " min";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.max), std::bit_cast<std::uint64_t>(sb.max))
      << what << " max";
}

void expect_stats_bits_equal(const TrialStats& a, const TrialStats& b) {
  expect_bits_equal(a.rounds, b.rounds, "rounds");
  expect_bits_equal(a.beeps_per_node, b.beeps_per_node, "beeps_per_node");
  expect_bits_equal(a.max_beeps_any_node, b.max_beeps_any_node, "max_beeps_any_node");
  expect_bits_equal(a.mis_size, b.mis_size, "mis_size");
  expect_bits_equal(a.message_bits, b.message_bits, "message_bits");
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.independence_violations, b.independence_violations);
  EXPECT_EQ(a.uncovered_nodes, b.uncovered_nodes);
  EXPECT_EQ(a.recovery_rounds, b.recovery_rounds);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "beepmis_" + name;
}

// --- journal round trip and rejection ------------------------------------

TrialStats sample_chunk_stats(std::uint64_t seed) {
  TrialStats s;
  auto rng = support::Xoshiro256StarStar(seed);
  for (int i = 0; i < 7; ++i) {
    s.rounds.push(rng.uniform01() * 100.0);
    s.beeps_per_node.push(rng.uniform01());
    s.max_beeps_any_node.push(static_cast<double>(rng.below(32)));
    s.mis_size.push(static_cast<double>(rng.below(50)));
    s.message_bits.push(0.0);
  }
  s.trials = 7;
  s.terminated = 7;
  s.valid = 6;
  s.independence_violations = 1;
  s.uncovered_nodes = 2;
  s.recovery_rounds = {3.0, 11.5};
  s.disruptions = 3;
  s.unrecovered_disruptions = 1;
  s.attempted = 9;
  s.quarantined = 2;
  s.retries = 4;
  s.failed_trials.push_back({12, seed, 3, "boom: spaces, a\nnewline and \xff bytes"});
  s.failed_trials.push_back({13, seed, 3, ""});
  return s;
}

TEST(SweepJournal, RoundTripIsBitIdentical) {
  const std::string path = temp_path("journal_roundtrip.txt");
  std::remove(path.c_str());
  const SweepJournal journal(path, 0xabcdef0123456789ULL, 200, 64);
  std::vector<JournalChunk> chunks;
  chunks.push_back({2, sample_chunk_stats(7)});
  chunks.push_back({0, sample_chunk_stats(9)});
  journal.save(chunks);

  const JournalLoadResult loaded = journal.load();
  ASSERT_EQ(loaded.status, JournalLoadResult::Status::kValid) << loaded.reason;
  ASSERT_EQ(loaded.chunks.size(), 2u);
  // Persisted sorted by index regardless of save order.
  EXPECT_EQ(loaded.chunks[0].index, 0u);
  EXPECT_EQ(loaded.chunks[1].index, 2u);
  expect_stats_bits_equal(loaded.chunks[0].stats, chunks[1].stats);
  expect_stats_bits_equal(loaded.chunks[1].stats, chunks[0].stats);
  const TrialStats& back = loaded.chunks[1].stats;
  EXPECT_EQ(back.disruptions, 3u);
  EXPECT_EQ(back.unrecovered_disruptions, 1u);
  EXPECT_EQ(back.attempted, 9u);
  EXPECT_EQ(back.quarantined, 2u);
  EXPECT_EQ(back.retries, 4u);
  const auto& failed = loaded.chunks[1].stats.failed_trials;
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].trial, 12u);
  EXPECT_EQ(failed[0].attempts, 3u);
  EXPECT_EQ(failed[0].error, "boom: spaces, a\nnewline and \xff bytes");
  EXPECT_EQ(failed[1].error, "");
  std::remove(path.c_str());
}

TEST(SweepJournal, MissingFileIsFreshStart) {
  const SweepJournal journal(temp_path("journal_missing.txt"), 1, 10, 64);
  EXPECT_EQ(journal.load().status, JournalLoadResult::Status::kNoFile);
}

TEST(SweepJournal, AnyCorruptionRejectsTheWholeJournal) {
  const std::string path = temp_path("journal_corrupt.txt");
  const SweepJournal journal(path, 42, 200, 64);
  journal.save({{1, sample_chunk_stats(3)}});

  std::string body;
  {
    std::ifstream in(path, std::ios::binary);
    body.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(body.empty());

  // Flip one payload byte: the content checksum must catch it.
  std::string flipped = body;
  flipped[body.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
  }
  JournalLoadResult r = journal.load();
  EXPECT_EQ(r.status, JournalLoadResult::Status::kRejected);
  EXPECT_FALSE(r.reason.empty());

  // Truncate (a torn write): also rejected whole.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body.substr(0, body.size() / 2);
  }
  r = journal.load();
  EXPECT_EQ(r.status, JournalLoadResult::Status::kRejected);
  EXPECT_FALSE(r.reason.empty());

  // Restore intact content: a journal keyed to a different request, trial
  // count or chunk geometry is rejected even though the checksum passes.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
  }
  EXPECT_EQ(SweepJournal(path, 43, 200, 64).load().status,
            JournalLoadResult::Status::kRejected);
  EXPECT_EQ(SweepJournal(path, 42, 300, 64).load().status,
            JournalLoadResult::Status::kRejected);
  EXPECT_EQ(SweepJournal(path, 42, 200, 128).load().status,
            JournalLoadResult::Status::kRejected);
  EXPECT_EQ(journal.load().status, JournalLoadResult::Status::kValid);
  std::remove(path.c_str());
}

// --- kill-and-resume differential oracle ---------------------------------

GraphFactory sweep_gnp() {
  return [](support::Xoshiro256StarStar& rng) { return graph::gnp(48, 0.15, rng); };
}

BeepProtocolFactory local_feedback() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
}

/// The local-feedback protocol under another type.  The exact-type guards
/// of LocalFeedbackMis (local_feedback.cpp) give it neither a batch kernel
/// nor shard support, so its sweeps run on the scalar path, with the same
/// draws and the same request key as local_feedback()'s batched ones.
class ScalarOnlyLocalFeedback final : public mis::LocalFeedbackMis {};

BeepProtocolFactory scalar_local_feedback() {
  return [] { return std::make_unique<ScalarOnlyLocalFeedback>(); };
}

TrialConfig sweep_config(unsigned threads) {
  TrialConfig config;
  config.trials = 640;  // 10 chunks: enough that in-flight claims never finish them all
  config.base_seed = 0xc0ffee;
  config.threads = threads;
  config.shared_graph = true;  // required by the batched paths
  config.checkpoint_interval = 64;
  return config;
}

TEST(Resilience, ResumeIsBitIdenticalToOneShot) {
  struct Variant {
    unsigned threads;
    BeepProtocolFactory protocols;
  };
  const Variant variants[] = {
      {1, scalar_local_feedback()},  // scalar path
      {4, scalar_local_feedback()},
      {4, local_feedback()},  // batched path
  };
  const std::string path = temp_path("journal_resume.txt");
  for (const Variant& v : variants) {
    const TrialStats one_shot = run_beep_trials(sweep_gnp(), v.protocols, sweep_config(v.threads));
    ASSERT_EQ(one_shot.trials, 640u);
    EXPECT_FALSE(one_shot.truncated);

    // Interrupt at >= 3 distinct checkpoint boundaries: after each kill the
    // journal holds only complete chunks, and the final resumed aggregate
    // must match the uninterrupted run bit for bit.
    for (std::size_t interrupt_after : {1u, 2u, 3u}) {
      std::remove(path.c_str());
      TrialConfig interrupted = sweep_config(v.threads);
      interrupted.journal_path = path;
      interrupted.stop_request = std::make_shared<std::atomic<bool>>(false);
      interrupted.on_checkpoint = [&interrupted, interrupt_after](std::size_t done) {
        if (done >= interrupt_after) interrupted.stop_request->store(true);
      };
      const TrialStats partial = run_beep_trials(sweep_gnp(), v.protocols, interrupted);
      ASSERT_TRUE(partial.truncated);
      EXPECT_EQ(partial.requested_trials, 640u);
      EXPECT_GE(partial.trials, 64u * interrupt_after);
      EXPECT_LT(partial.trials, 640u);
      EXPECT_EQ(partial.trials % 64u, 0u) << "truncation must land on a chunk boundary";

      TrialConfig resumed_cfg = sweep_config(v.threads);
      resumed_cfg.journal_path = path;
      resumed_cfg.resume = true;
      const TrialStats resumed = run_beep_trials(sweep_gnp(), v.protocols, resumed_cfg);
      EXPECT_FALSE(resumed.truncated);
      EXPECT_EQ(resumed.resumed_trials, partial.trials);
      EXPECT_TRUE(resumed.resume_discarded_reason.empty());
      expect_stats_bits_equal(resumed, one_shot);
    }
  }
  std::remove(path.c_str());
}

TEST(Resilience, ResumeAcrossThreadCountsAndPaths) {
  // A journal is keyed to the numbers its sweep draws, not to how they are
  // computed: chunk geometry defines the aggregate, and every route draws
  // in scalar order.  A 1-thread scalar journal finishes under a 4-thread
  // batched run, and a batched journal under a sharded one, incrementally
  // and on the resumed config's one-shot bits.
  struct Case {
    const char* name;
    TrialConfig written;
    BeepProtocolFactory written_protocols;
    TrialConfig resumed;
  };
  const auto sharded = [](TrialConfig config) {
    config.shards = 2;
    return config;
  };
  const Case cases[] = {
      {"scalar, 1 thread -> batched, 4 threads", sweep_config(1), scalar_local_feedback(),
       sweep_config(4)},
      {"batched, 2 threads -> sharded, K = 2", sweep_config(2), local_feedback(),
       sharded(sweep_config(2))},
  };
  const std::string path = temp_path("journal_cross.txt");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::remove(path.c_str());
    const TrialStats one_shot = run_beep_trials(sweep_gnp(), local_feedback(), c.resumed);

    TrialConfig interrupted = c.written;
    interrupted.journal_path = path;
    interrupted.stop_request = std::make_shared<std::atomic<bool>>(false);
    interrupted.on_checkpoint = [&interrupted](std::size_t done) {
      if (done >= 2) interrupted.stop_request->store(true);
    };
    const TrialStats partial = run_beep_trials(sweep_gnp(), c.written_protocols, interrupted);
    ASSERT_TRUE(partial.truncated);

    TrialConfig resumed_cfg = c.resumed;
    resumed_cfg.journal_path = path;
    resumed_cfg.resume = true;
    const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), resumed_cfg);
    EXPECT_EQ(resumed.resumed_trials, partial.trials);
    EXPECT_TRUE(resumed.resume_discarded_reason.empty()) << resumed.resume_discarded_reason;
    expect_stats_bits_equal(resumed, one_shot);
  }
  std::remove(path.c_str());
}

TEST(Resilience, RequestKeyIsStable) {
  // The journal's request key is a compatibility promise: journals and
  // beepmisd state written by earlier builds must keep resuming
  // incrementally.  These hex values are what those builds wrote for one
  // fixed beeping and one fixed LOCAL config; a change here strands every
  // journal on disk.
  const GraphFactory graphs = [](support::Xoshiro256StarStar& rng) {
    return graph::gnp(40, 0.1, rng);
  };
  const auto request_line = [](const std::string& path) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("request ", 0) == 0) return line;
    }
    return std::string("no request line");
  };
  TrialConfig config;
  config.trials = 64;
  config.base_seed = 0x1234;
  config.threads = 1;
  config.shared_graph = true;
  config.request_fingerprint = 0xabcdef;

  const std::string beep_path = temp_path("journal_key_beep.txt");
  std::remove(beep_path.c_str());
  TrialConfig beep = config;
  beep.sim.beep_loss_probability = 0.05;
  beep.sim.mis_keepalive = true;
  beep.journal_path = beep_path;
  (void)run_beep_trials(graphs, local_feedback(), beep);
  EXPECT_EQ(request_line(beep_path), "request f9ce09917b380083");
  std::remove(beep_path.c_str());

  const std::string local_path = temp_path("journal_key_local.txt");
  std::remove(local_path.c_str());
  TrialConfig local = config;
  local.journal_path = local_path;
  (void)run_local_trials(graphs, [] { return std::make_unique<mis::LubyMis>(); }, local);
  EXPECT_EQ(request_line(local_path), "request 8d903bbacac46e39");
  std::remove(local_path.c_str());
}

TEST(Resilience, CorruptJournalIsDiscardedAndSweepRestarts) {
  const std::string path = temp_path("journal_resume_corrupt.txt");
  std::remove(path.c_str());
  const TrialStats one_shot = run_beep_trials(
      sweep_gnp(), scalar_local_feedback(), sweep_config(2));

  TrialConfig interrupted = sweep_config(2);
  interrupted.journal_path = path;
  interrupted.stop_request = std::make_shared<std::atomic<bool>>(false);
  interrupted.on_checkpoint = [&interrupted](std::size_t) {
    interrupted.stop_request->store(true);
  };
  (void)run_beep_trials(sweep_gnp(), scalar_local_feedback(), interrupted);

  // Corrupt one byte; resume must reject the whole journal, restart from
  // scratch, and still land on the one-shot bits.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    f.put('~');
  }
  TrialConfig resumed_cfg = sweep_config(2);
  resumed_cfg.journal_path = path;
  resumed_cfg.resume = true;
  const TrialStats resumed = run_beep_trials(sweep_gnp(), scalar_local_feedback(), resumed_cfg);
  EXPECT_EQ(resumed.resumed_trials, 0u);
  EXPECT_FALSE(resumed.resume_discarded_reason.empty());
  expect_stats_bits_equal(resumed, one_shot);
  std::remove(path.c_str());
}

TEST(Resilience, ExpiredBudgetTruncatesImmediatelyAndResumeFinishes) {
  const std::string path = temp_path("journal_budget.txt");
  std::remove(path.c_str());
  TrialConfig config = sweep_config(2);
  config.journal_path = path;
  config.budget_seconds = 1e-9;  // expires before the first claim
  const TrialStats partial = run_beep_trials(sweep_gnp(), scalar_local_feedback(), config);
  EXPECT_TRUE(partial.truncated);
  EXPECT_EQ(partial.trials, 0u);
  EXPECT_EQ(partial.requested_trials, 640u);
  EXPECT_EQ(partial.rounds.count(), 0u);

  const TrialStats one_shot = run_beep_trials(
      sweep_gnp(), scalar_local_feedback(), sweep_config(2));
  TrialConfig resumed_cfg = sweep_config(2);
  resumed_cfg.journal_path = path;
  resumed_cfg.resume = true;  // nothing was checkpointed: fresh start is fine
  const TrialStats resumed = run_beep_trials(sweep_gnp(), scalar_local_feedback(), resumed_cfg);
  EXPECT_FALSE(resumed.truncated);
  expect_stats_bits_equal(resumed, one_shot);
  std::remove(path.c_str());
}

TEST(Resilience, WiderIntervalsWhenTruncated) {
  TrialConfig full_cfg = sweep_config(2);
  const TrialStats full = run_beep_trials(sweep_gnp(), scalar_local_feedback(), full_cfg);

  TrialConfig cut = sweep_config(2);
  cut.stop_request = std::make_shared<std::atomic<bool>>(false);
  cut.on_checkpoint = [&cut](std::size_t done) {
    if (done >= 1) cut.stop_request->store(true);
  };
  const TrialStats partial = run_beep_trials(sweep_gnp(), scalar_local_feedback(), cut);
  ASSERT_TRUE(partial.truncated);
  ASSERT_GT(partial.rounds.count(), 1u);
  ASSERT_LT(partial.rounds.count(), full.rounds.count());

  const auto full_ci = TrialStats::ci95(full.rounds);
  const auto part_ci = TrialStats::ci95(partial.rounds);
  // Honest degradation: fewer samples never tighten the reported interval
  // relative to its own stderr (interval half-width scales with 1/sqrt(n)).
  EXPECT_GT(part_ci.hi - part_ci.lo, 0.0);
  EXPECT_GT(full_ci.hi - full_ci.lo, 0.0);
}

// --- chaos harness: per-trial fault isolation ----------------------------

/// Wraps LocalFeedbackMis and misbehaves on a chosen trial subset.  Trials
/// are identified from inside the protocol by peeking (copying, never
/// advancing) the run rng handed to reset(): trial t's run generator is
/// SeedSequence(base).child(t).child(1).generator(), still untouched when
/// reset() runs, so its first output is a per-trial fingerprint.
class ChaosLocalFeedback final : public sim::BeepProtocol {
 public:
  enum class Mode {
    kThrowOnce,    ///< fail the first attempt, succeed on retry
    kThrowAlways,  ///< fail every attempt (drives quarantine)
    kHang,         ///< sleep each exchange (drives the trial timeout)
  };
  struct Shared {
    Mode mode = Mode::kThrowOnce;
    std::set<std::uint64_t> targets;
    std::mutex mutex;
    std::set<std::uint64_t> already_failed;
  };

  explicit ChaosLocalFeedback(std::shared_ptr<Shared> shared) : shared_(std::move(shared)) {}

  [[nodiscard]] std::string_view name() const override { return "chaos-local-feedback"; }
  [[nodiscard]] unsigned exchanges_per_round() const override {
    return inner_.exchanges_per_round();
  }

  void reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) override {
    auto probe = rng;  // copy: the real stream must stay untouched
    const std::uint64_t fingerprint = probe();
    hang_ = false;
    if (shared_->targets.count(fingerprint) != 0) {
      switch (shared_->mode) {
        case Mode::kThrowAlways:
          throw std::runtime_error("chaos: injected deterministic fault");
        case Mode::kThrowOnce: {
          const std::lock_guard<std::mutex> lock(shared_->mutex);
          if (shared_->already_failed.insert(fingerprint).second) {
            throw std::runtime_error("chaos: injected transient fault");
          }
          break;
        }
        case Mode::kHang:
          hang_ = true;
          break;
      }
    }
    inner_.reset(g, rng);
  }
  void emit(sim::BeepContext& ctx) override {
    if (hang_) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    inner_.emit(ctx);
  }
  void react(sim::BeepContext& ctx) override { inner_.react(ctx); }

 private:
  std::shared_ptr<Shared> shared_;
  mis::LocalFeedbackMis inner_;
  bool hang_ = false;
};

/// First run-rng output of trial `t` under `base_seed` — the fingerprint
/// ChaosLocalFeedback sees in reset().
std::uint64_t trial_fingerprint(std::uint64_t base_seed, std::size_t t) {
  auto rng = support::SeedSequence(base_seed).child(t).child(1).generator();
  return rng();
}

TrialConfig chaos_config() {
  TrialConfig config;
  config.trials = 40;  // single chunk: aggregate == straight pushes in trial order
  config.base_seed = 99;
  config.threads = 2;
  config.isolate_trial_faults = true;
  return config;
}

GraphFactory chaos_gnp() {
  return [](support::Xoshiro256StarStar& rng) { return graph::gnp(40, 0.15, rng); };
}

TEST(Chaos, TransientFaultsRetryAndMatchCleanRunBitForBit) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kThrowOnce;
  const std::vector<std::size_t> chosen = {3, 17, 29};
  TrialConfig config = chaos_config();
  for (const std::size_t t : chosen) {
    shared->targets.insert(trial_fingerprint(config.base_seed, t));
  }

  const TrialStats chaotic = run_beep_trials(
      chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config);
  const TrialStats clean = run_beep_trials(chaos_gnp(), local_feedback(), chaos_config());

  EXPECT_EQ(chaotic.retries, chosen.size());
  EXPECT_EQ(chaotic.quarantined, 0u);
  EXPECT_EQ(chaotic.attempted, 40u);
  EXPECT_EQ(chaotic.trials, 40u);
  EXPECT_TRUE(chaotic.failed_trials.empty());
  // Retries rerun the identical seed-pure computation: transient faults
  // leave no trace in the aggregates.
  expect_stats_bits_equal(chaotic, clean);
}

TEST(Chaos, ExhaustedRetriesQuarantineAndSurvivorsMatchTheOracle) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kThrowAlways;
  const std::vector<std::size_t> chosen = {5, 21};
  TrialConfig config = chaos_config();
  config.max_retries = 1;  // 2 attempts per trial
  for (const std::size_t t : chosen) {
    shared->targets.insert(trial_fingerprint(config.base_seed, t));
  }

  const TrialStats stats = run_beep_trials(
      chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config);

  EXPECT_EQ(stats.requested_trials, 40u);
  EXPECT_EQ(stats.attempted, 40u);
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_EQ(stats.trials, 38u);
  EXPECT_EQ(stats.retries, 2u);  // one retry per quarantined trial
  EXPECT_FALSE(stats.truncated);
  ASSERT_EQ(stats.failed_trials.size(), 2u);
  EXPECT_EQ(stats.failed_trials[0].trial, 5u);
  EXPECT_EQ(stats.failed_trials[1].trial, 21u);
  for (const FailedTrial& f : stats.failed_trials) {
    EXPECT_EQ(f.base_seed, config.base_seed);
    EXPECT_EQ(f.attempts, 2u);
    EXPECT_NE(f.error.find("chaos"), std::string::npos);
  }

  // Differential oracle: recompute every surviving trial directly on the
  // scalar simulator, pushing in trial order (one chunk => the sweep
  // aggregate is exactly this), and demand bit equality.
  TrialStats oracle;
  for (std::size_t t = 0; t < 40; ++t) {
    if (t == 5 || t == 21) continue;
    const support::SeedSequence trial_seed = support::SeedSequence(config.base_seed).child(t);
    auto graph_rng = trial_seed.child(0).generator();
    const graph::Graph g = graph::gnp(40, 0.15, graph_rng);
    mis::LocalFeedbackMis protocol;
    sim::BeepSimulator simulator(g);
    const sim::RunResult result = simulator.run(protocol, trial_seed.child(1).generator());
    oracle.rounds.push(static_cast<double>(result.rounds));
    oracle.beeps_per_node.push(result.mean_beeps_per_node());
    std::uint32_t max_beeps = 0;
    for (const std::uint32_t b : result.beep_counts) max_beeps = std::max(max_beeps, b);
    oracle.max_beeps_any_node.push(static_cast<double>(max_beeps));
    const mis::VerificationReport report = mis::verify_mis_run(g, result);
    oracle.mis_size.push(static_cast<double>(report.mis_size));
    oracle.message_bits.push(static_cast<double>(result.message_bits));
  }
  expect_bits_equal(stats.rounds, oracle.rounds, "rounds");
  expect_bits_equal(stats.beeps_per_node, oracle.beeps_per_node, "beeps_per_node");
  expect_bits_equal(stats.max_beeps_any_node, oracle.max_beeps_any_node, "max_beeps");
  expect_bits_equal(stats.mis_size, oracle.mis_size, "mis_size");
}

TEST(Chaos, HungTrialsHitTheTrialTimeoutAndQuarantine) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kHang;
  TrialConfig config = chaos_config();
  config.trials = 16;
  config.max_retries = 0;
  // The hung trial sleeps 25 ms per exchange: even a two-round run blows
  // this deadline, while clean trials finish in microseconds.
  config.trial_timeout_seconds = 0.1;
  shared->targets.insert(trial_fingerprint(config.base_seed, 7));

  const TrialStats stats = run_beep_trials(
      chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.trials, 15u);
  ASSERT_EQ(stats.failed_trials.size(), 1u);
  EXPECT_EQ(stats.failed_trials[0].trial, 7u);
  EXPECT_NE(stats.failed_trials[0].error.find("deadline expired"), std::string::npos)
      << stats.failed_trials[0].error;
}

/// A LOCAL protocol that never decides and sleeps 100 us per round.
class HungLocalProtocol final : public sim::LocalProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "hung-local"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
  void reset(const graph::Graph&, support::Xoshiro256StarStar&) override {}
  void emit(sim::LocalContext&) override {}
  void react(sim::LocalContext&) override {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
};

TEST(Chaos, HungLocalTrialsHitTheTrialTimeout) {
  // run_local_trials arms LocalSimConfig::deadline_ns, so a LOCAL trial
  // that never decides is cancelled at a round boundary and quarantined.
  // Reaching its round cap takes at least 10 s of sleep, far past the
  // 50 ms timeout, so the outcome does not depend on the machine's speed.
  TrialConfig config = chaos_config();
  config.trials = 2;
  config.max_retries = 0;
  config.trial_timeout_seconds = 0.05;
  config.local_sim.max_rounds = 100000;
  const TrialStats stats = run_local_trials(
      chaos_gnp(), [] { return std::make_unique<HungLocalProtocol>(); }, config);
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_EQ(stats.trials, 0u);
  ASSERT_EQ(stats.failed_trials.size(), 2u);
  for (const auto& failed : stats.failed_trials) {
    EXPECT_NE(failed.error.find("LocalSimulator::run: deadline expired"), std::string::npos)
        << failed.error;
  }
}

TEST(Chaos, WithoutIsolationTheFirstFaultFailsTheSweep) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kThrowAlways;
  TrialConfig config = chaos_config();
  config.isolate_trial_faults = false;  // historical fail-fast semantics
  shared->targets.insert(trial_fingerprint(config.base_seed, 11));
  EXPECT_THROW(
      (void)run_beep_trials(
          chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config),
      std::runtime_error);
}

// --- knob validation ------------------------------------------------------

TEST(Resilience, InvalidSweepKnobsAreRejected) {
  const auto run = [](const TrialConfig& config) {
    return run_beep_trials(sweep_gnp(), local_feedback(), config);
  };
  TrialConfig config;
  config.trials = 1;
  config.budget_seconds = -1.0;
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.trial_timeout_seconds = std::nan("");
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.checkpoint_interval = 0;
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.resume = true;  // resume without a journal path is meaningless
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.sim.deadline_ns = std::make_shared<std::atomic<std::int64_t>>(0);
  EXPECT_THROW((void)run(config), std::invalid_argument);
}

TEST(Resilience, HugeCheckpointIntervalSaturatesInsteadOfWrapping) {
  // Rounding up to a multiple of 64 used to wrap UINT64_MAX to a zero chunk
  // size, and the chunk count then divided by it.
  constexpr std::size_t kLargest = std::numeric_limits<std::size_t>::max() / 64 * 64;
  for (const std::size_t interval : {std::numeric_limits<std::size_t>::max(),
                                     std::numeric_limits<std::size_t>::max() - 63}) {
    EXPECT_EQ(effective_checkpoint_interval(interval), kLargest) << interval;
    EXPECT_EQ(checkpoint_chunk_count(3, interval), 1u) << interval;
    EXPECT_EQ(checkpoint_chunk_count(640, interval), 1u) << interval;
    EXPECT_EQ(checkpoint_chunk_count(0, interval), 0u) << interval;
  }
  EXPECT_EQ(checkpoint_chunk_count(std::numeric_limits<std::size_t>::max(), 64),
            std::numeric_limits<std::size_t>::max() / 64 + 1);

  // A sweep with such an interval runs as one chunk: the same bits as the
  // default interval's on a single-chunk sweep, journal included.
  const std::string path = temp_path("journal_huge_interval.txt");
  std::remove(path.c_str());
  TrialConfig config = sweep_config(2);
  config.trials = 40;
  const TrialStats reference = run_beep_trials(sweep_gnp(), local_feedback(), config);
  config.checkpoint_interval = std::numeric_limits<std::size_t>::max();
  config.journal_path = path;
  const TrialStats huge = run_beep_trials(sweep_gnp(), local_feedback(), config);
  EXPECT_FALSE(huge.truncated);
  expect_stats_bits_equal(huge, reference);
  config.resume = true;
  const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), config);
  EXPECT_EQ(resumed.resumed_trials, 40u);
  expect_stats_bits_equal(resumed, reference);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace beepmis::harness
