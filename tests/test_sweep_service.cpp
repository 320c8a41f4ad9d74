// End-to-end coverage of the beepmisd experiment service (src/svc/):
// a real SweepService on an ephemeral Unix socket in a per-test mkdtemp
// directory (safe under parallel ctest -j), driven through the real
// SweepClient.  Asserts the service's core promises:
//
//   * a served sweep is bit-identical to a direct cli::run_sweep;
//   * a duplicate submitted while the first request runs ATTACHES to the
//     in-flight job (no second run) and gets the same bits;
//   * repeats hit the result cache — in memory, and from disk across a
//     server restart;
//   * fair-share scheduling interleaves clients instead of letting one
//     client's backlog starve another;
//   * the sweep exit-code contract (0 complete / 2 quarantined / 3
//     truncated) and resume_discarded_reason surface through the
//     protocol;
//   * a draining daemon refuses every open connection with a final
//     error line and closes it gracefully, so no client ever sees a reset;
//   * stop() + a fresh start() on the same state directory resumes a
//     journaled in-flight sweep to a result bit-identical to an
//     uninterrupted run (the crash-safety acceptance bar).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli/registry.hpp"
#include "cli/sweep_spec.hpp"
#include "exp/runner.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"

namespace beepmis::svc {
namespace {

using Event = SweepClient::Event;

// --- bit-exact stats comparison ------------------------------------------

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

/// The aggregate-level equality the service promises: same metric bits
/// and verification counts.  resumed_trials may legitimately differ
/// between a resumed and an uninterrupted run, so it is not compared.
void expect_aggregates_bit_identical(const harness::TrialStats& a, const harness::TrialStats& b) {
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
}

// --- fixture --------------------------------------------------------------

class SweepServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = "/tmp/beepmis_svc_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  [[nodiscard]] ServiceConfig config(unsigned workers = 1) const {
    ServiceConfig c;
    c.socket_path = dir_ + "/beepmisd.sock";
    c.state_dir = dir_ + "/state";
    c.job_workers = workers;
    c.poll_ms = 20;
    return c;
  }

  /// A fast, deterministic sweep request; vary `base_seed` for distinct
  /// fingerprints.
  [[nodiscard]] static cli::SweepSpec small_spec(std::uint64_t base_seed,
                                                std::size_t trials = 64) {
    cli::SweepSpec spec;
    spec.graph.family = "gnp";
    spec.graph.n = 300;
    spec.graph.p = 0.02;
    spec.trials = trials;
    spec.base_seed = base_seed;
    spec.threads = 1;
    spec.checkpoint_interval = 32;
    return spec;
  }

  /// Waits until `done` or 30s; the service is event-driven, so this only
  /// burns time when something is genuinely wrong.
  static bool wait_for(const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  std::string dir_;
};

// --- basic serving --------------------------------------------------------

TEST_F(SweepServiceTest, ServedSweepIsBitIdenticalToDirectRunSweep) {
  SweepService service(config(2));
  service.start();

  const cli::SweepSpec spec = small_spec(101);
  SweepClient client = SweepClient::connect(config().socket_path);
  EXPECT_TRUE(client.ping());
  const Event result = client.run(cli::format_sweep_spec(spec));
  ASSERT_EQ(result.kind, Event::Kind::kResult);
  EXPECT_EQ(result.status, "complete");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_FALSE(result.cached);
  ASSERT_TRUE(result.has_stats);

  const harness::TrialStats direct = cli::run_sweep(spec);
  expect_aggregates_bit_identical(result.stats, direct);
  EXPECT_EQ(result.stats.requested_trials, spec.trials);

  // Clean completion leaves only the durable result cache behind.
  const std::uint64_t fp = cli::sweep_fingerprint(spec);
  EXPECT_TRUE(std::filesystem::exists(service.result_path(fp)));
  EXPECT_FALSE(std::filesystem::exists(service.pending_path(fp)));
  EXPECT_FALSE(std::filesystem::exists(service.journal_path(fp)));

  service.drain();
  service.join();
  EXPECT_EQ(service.internal_error(), "");
}

TEST_F(SweepServiceTest, StreamsProgressAndAnnouncesChunkTotal) {
  SweepService service(config());
  service.start();

  // The effective checkpoint interval rounds up to whole 64-lane batches
  // (harness::effective_checkpoint_interval), so 192 trials = 3 chunks.
  const cli::SweepSpec spec = small_spec(707, /*trials=*/192);
  SweepClient client = SweepClient::connect(config().socket_path);
  Event event = client.submit(cli::format_sweep_spec(spec));
  ASSERT_EQ(event.kind, Event::Kind::kAck);
  EXPECT_EQ(event.ack_mode, "queued");
  EXPECT_EQ(event.chunks_total, 3u);

  std::size_t progress_events = 0;
  std::size_t last_done = 0;
  for (event = client.next_event(); event.kind == Event::Kind::kProgress;
       event = client.next_event()) {
    ++progress_events;
    EXPECT_GT(event.chunks_done, last_done) << "progress must be monotone";
    EXPECT_LE(event.chunks_done, event.chunks_total);
    last_done = event.chunks_done;
  }
  ASSERT_EQ(event.kind, Event::Kind::kResult);
  EXPECT_EQ(event.status, "complete");
  EXPECT_GE(progress_events, 1u) << "at least one checkpoint must stream";

  service.drain();
  service.join();
}

TEST_F(SweepServiceTest, HugeCheckpointIntervalIsServedAndServiceStaysUp) {
  // A checkpoint interval near 2^64 used to wrap the chunk size to zero, and
  // the chunk count in handle_submit divided by it: one submit line killed
  // the daemon.  It saturates now, and runs like a single-chunk sweep.
  SweepService service(config());
  service.start();

  cli::SweepSpec spec = small_spec(909, /*trials=*/3);
  spec.checkpoint_interval = std::numeric_limits<std::size_t>::max();
  SweepClient client = SweepClient::connect(config().socket_path);
  const Event result = client.run(cli::format_sweep_spec(spec));
  ASSERT_EQ(result.kind, Event::Kind::kResult);
  EXPECT_EQ(result.status, "complete");
  ASSERT_TRUE(result.has_stats);
  cli::SweepSpec default_interval = spec;
  default_interval.checkpoint_interval = 64;
  expect_aggregates_bit_identical(result.stats, cli::run_sweep(default_interval));

  SweepClient again = SweepClient::connect(config().socket_path);
  EXPECT_TRUE(again.ping()) << "the service must survive the submit";

  service.drain();
  service.join();
  EXPECT_EQ(service.internal_error(), "");
}

// --- dedup: attach and cache ----------------------------------------------

TEST_F(SweepServiceTest, DuplicateAttachesToInFlightJobAndRepeatsHitCache) {
  SweepService service(config(/*workers=*/1));
  // Dispatch is held until the duplicate is acknowledged, so the target
  // sweep is guaranteed still queued (= attachable) when it arrives, and
  // the filler job then runs ahead of it.
  service.pause_dispatch();
  service.start();
  const std::string socket = config().socket_path;

  const cli::SweepSpec filler = small_spec(1, /*trials=*/32);
  const cli::SweepSpec target = small_spec(2, /*trials=*/96);

  SweepClient filler_client = SweepClient::connect(socket);
  SweepClient first = SweepClient::connect(socket);
  SweepClient duplicate = SweepClient::connect(socket);

  Event filler_ack = filler_client.submit(cli::format_sweep_spec(filler), 0, "filler");
  ASSERT_EQ(filler_ack.kind, Event::Kind::kAck);
  Event first_ack = first.submit(cli::format_sweep_spec(target), 0, "alice");
  ASSERT_EQ(first_ack.kind, Event::Kind::kAck);
  EXPECT_EQ(first_ack.ack_mode, "queued");
  Event dup_ack = duplicate.submit(cli::format_sweep_spec(target), 0, "bob");
  ASSERT_EQ(dup_ack.kind, Event::Kind::kAck);
  EXPECT_EQ(dup_ack.ack_mode, "attached");
  EXPECT_EQ(dup_ack.fingerprint, first_ack.fingerprint);
  service.resume_dispatch();

  const auto pump = [](SweepClient& c) {
    Event e = c.next_event();
    while (e.kind == Event::Kind::kProgress) e = c.next_event();
    return e;
  };
  const Event first_result = pump(first);
  const Event dup_result = pump(duplicate);
  ASSERT_EQ(first_result.kind, Event::Kind::kResult);
  ASSERT_EQ(dup_result.kind, Event::Kind::kResult);
  ASSERT_TRUE(first_result.has_stats);
  ASSERT_TRUE(dup_result.has_stats);
  expect_aggregates_bit_identical(first_result.stats, dup_result.stats);

  // The attached duplicate must not have re-run the sweep.
  EXPECT_EQ(service.counters().attached, 1u);
  std::vector<std::uint64_t> started = service.started_order();
  EXPECT_EQ(std::count(started.begin(), started.end(), first_ack.fingerprint), 1);

  // A repeat after completion is served from cache, bit-identically.
  SweepClient repeat = SweepClient::connect(socket);
  const Event cached = repeat.run(cli::format_sweep_spec(target));
  ASSERT_EQ(cached.kind, Event::Kind::kResult);
  EXPECT_TRUE(cached.cached);
  EXPECT_EQ(cached.status, "complete");
  ASSERT_TRUE(cached.has_stats);
  expect_aggregates_bit_identical(cached.stats, first_result.stats);
  EXPECT_EQ(service.counters().cache_hits, 1u);

  (void)pump(filler_client);
  service.drain();
  service.join();
}

TEST_F(SweepServiceTest, DiskCacheSurvivesRestart) {
  const cli::SweepSpec spec = small_spec(303);
  harness::TrialStats first_run;
  {
    SweepService service(config());
    service.start();
    SweepClient client = SweepClient::connect(config().socket_path);
    const Event result = client.run(cli::format_sweep_spec(spec));
    ASSERT_EQ(result.kind, Event::Kind::kResult);
    ASSERT_TRUE(result.has_stats);
    first_run = result.stats;
    service.drain();
    service.join();
  }
  {
    SweepService service(config());
    service.start();
    EXPECT_EQ(service.counters().recovered_pending, 0u);
    SweepClient client = SweepClient::connect(config().socket_path);
    const Event result = client.run(cli::format_sweep_spec(spec));
    ASSERT_EQ(result.kind, Event::Kind::kResult);
    EXPECT_TRUE(result.cached) << "durable result cache must serve across restarts";
    ASSERT_TRUE(result.has_stats);
    expect_aggregates_bit_identical(result.stats, first_run);
    EXPECT_EQ(service.counters().cache_hits, 1u);
    service.drain();
    service.join();
  }
}

// --- scheduling -----------------------------------------------------------

TEST_F(SweepServiceTest, FairShareInterleavesClientsInsteadOfStarving) {
  SweepService service(config(/*workers=*/1));
  // Hold dispatch so all five submits land in the queue before any job
  // starts: the order below is then the scheduler's choice alone, however
  // fast the sweeps run or slowly the clients connect.
  service.pause_dispatch();
  service.start();
  const std::string socket = config().socket_path;

  // The first submitter's job dispatches first.
  SweepClient blocker = SweepClient::connect(socket);
  Event blocker_ack = blocker.submit(cli::format_sweep_spec(small_spec(10, 64)), 0, "setup");
  ASSERT_EQ(blocker_ack.kind, Event::Kind::kAck);

  // Alice floods three sweeps, then Bob asks for one.
  std::vector<std::unique_ptr<SweepClient>> alice;
  std::vector<std::uint64_t> alice_fp;
  for (std::uint64_t i = 0; i < 3; ++i) {
    alice.push_back(std::make_unique<SweepClient>(SweepClient::connect(socket)));
    const Event ack =
        alice.back()->submit(cli::format_sweep_spec(small_spec(20 + i, 32)), 0, "alice");
    ASSERT_EQ(ack.kind, Event::Kind::kAck);
    alice_fp.push_back(ack.fingerprint);
  }
  SweepClient bob = SweepClient::connect(socket);
  const Event bob_ack = bob.submit(cli::format_sweep_spec(small_spec(30, 32)), 0, "bob");
  ASSERT_EQ(bob_ack.kind, Event::Kind::kAck);
  EXPECT_TRUE(service.started_order().empty()) << "a job started while dispatch was paused";
  service.resume_dispatch();

  const auto pump = [](SweepClient& c) {
    Event e = c.next_event();
    while (e.kind == Event::Kind::kProgress) e = c.next_event();
    EXPECT_EQ(e.kind, Event::Kind::kResult);
  };
  pump(blocker);
  for (auto& c : alice) pump(*c);
  pump(bob);

  // Dispatch order: blocker, then alice/bob round-robin — bob's single
  // request runs right after alice's FIRST job, not after her third.
  const std::vector<std::uint64_t> started = service.started_order();
  ASSERT_EQ(started.size(), 5u);
  EXPECT_EQ(started[0], blocker_ack.fingerprint);
  EXPECT_EQ(started[1], alice_fp[0]);
  EXPECT_EQ(started[2], bob_ack.fingerprint);
  EXPECT_EQ(started[3], alice_fp[1]);
  EXPECT_EQ(started[4], alice_fp[2]);

  service.drain();
  service.join();
}

// --- the sweep status contract over the wire ------------------------------

TEST_F(SweepServiceTest, QuarantinedSweepSurfacesExitCodeTwo) {
  SweepService service(config());
  service.start();

  // Impossible per-trial timeout + no retries: every trial quarantines
  // (the chaos-harness recipe), which the server maps to exit 2.
  cli::SweepSpec spec = small_spec(404, /*trials=*/32);
  spec.trial_timeout_seconds = 1e-9;
  spec.isolate_faults = true;
  spec.max_retries = 0;

  SweepClient client = SweepClient::connect(config().socket_path);
  const Event result = client.run(cli::format_sweep_spec(spec));
  ASSERT_EQ(result.kind, Event::Kind::kResult);
  EXPECT_EQ(result.status, "quarantined");
  EXPECT_EQ(result.exit_code, 2);
  ASSERT_TRUE(result.has_stats);
  EXPECT_GT(result.stats.quarantined, 0u);
  EXPECT_FALSE(result.stats.failed_trials.empty());

  // Degraded results are never cached: a resubmission with saner knobs
  // must re-run (the fingerprint ignores timeout/isolation knobs).
  const std::uint64_t fp = cli::sweep_fingerprint(spec);
  EXPECT_FALSE(std::filesystem::exists(service.result_path(fp)));
  EXPECT_EQ(service.counters().quarantined, 1u);
  EXPECT_EQ(service.counters().cache_hits, 0u);

  service.drain();
  service.join();
}

TEST_F(SweepServiceTest, TruncatedSweepKeepsJournalAndResumesOnResubmit) {
  SweepService service(config());
  service.start();
  const std::string socket = config().socket_path;

  // 96 trials = a 64-trial chunk plus a 32-trial chunk.  Deterministically
  // journal exactly the first chunk where the server will look for this
  // request's checkpoints: a direct run_sweep that requests a stop the
  // moment the first checkpoint lands.
  const cli::SweepSpec spec = small_spec(505, /*trials=*/96);
  const std::uint64_t fp = cli::sweep_fingerprint(spec);
  {
    cli::SweepSpec plant = spec;
    plant.journal_path = service.journal_path(fp);
    auto stop = std::make_shared<std::atomic<bool>>(false);
    cli::SweepHooks hooks;
    hooks.stop_request = stop;
    hooks.on_checkpoint = [stop](std::size_t) { stop->store(true); };
    const harness::TrialStats planted = cli::run_sweep(plant, hooks);
    ASSERT_TRUE(planted.truncated);
    ASSERT_EQ(planted.trials, 64u);
  }

  // An expired-at-start budget stops the served sweep before it can add a
  // chunk: truncated, exit 3, and the journal (with its one resumed
  // chunk) is RETAINED for a later resubmission.
  cli::SweepSpec limited = spec;
  limited.budget_seconds = 1e-9;
  SweepClient client = SweepClient::connect(socket);
  const Event truncated = client.run(cli::format_sweep_spec(limited));
  ASSERT_EQ(truncated.kind, Event::Kind::kResult);
  EXPECT_EQ(truncated.status, "truncated");
  EXPECT_EQ(truncated.exit_code, 3);
  ASSERT_TRUE(truncated.has_stats);
  EXPECT_TRUE(truncated.stats.truncated);
  EXPECT_EQ(truncated.stats.trials, 64u);
  EXPECT_EQ(truncated.stats.resumed_trials, 64u) << "the planted journal must be honoured";
  EXPECT_TRUE(std::filesystem::exists(service.journal_path(fp)))
      << "a truncated job's journal must survive for the next attempt";
  EXPECT_FALSE(std::filesystem::exists(service.result_path(fp))) << "partial must not cache";
  EXPECT_EQ(service.counters().truncated, 1u);

  // Same request, unlimited budget — same fingerprint, budget is an
  // execution knob.  The re-run resumes the journaled chunk and finishes,
  // bit-identical to an uninterrupted one-shot run.
  SweepClient again = SweepClient::connect(socket);
  const Event completed = again.run(cli::format_sweep_spec(spec));
  ASSERT_EQ(completed.kind, Event::Kind::kResult);
  EXPECT_EQ(completed.status, "complete");
  EXPECT_EQ(completed.exit_code, 0);
  EXPECT_FALSE(completed.cached);
  ASSERT_TRUE(completed.has_stats);
  EXPECT_EQ(completed.stats.resumed_trials, 64u)
      << "the re-run must resume the truncated run's journal, not start over";

  const harness::TrialStats direct = cli::run_sweep(spec);
  expect_aggregates_bit_identical(completed.stats, direct);

  service.drain();
  service.join();
}

TEST_F(SweepServiceTest, ResumeDiscardedReasonSurfacesThroughProtocol) {
  SweepService service(config());
  service.start();

  // Plant a corrupt journal where the server will look for this request's
  // checkpoints: the sweep must restart from scratch and SAY so.
  const cli::SweepSpec spec = small_spec(606, /*trials=*/32);
  const std::uint64_t fp = cli::sweep_fingerprint(spec);
  {
    std::ofstream out(service.journal_path(fp), std::ios::binary);
    out << "beepmis-sweep-journal v1\ngarbage\n";
  }

  SweepClient client = SweepClient::connect(config().socket_path);
  const Event result = client.run(cli::format_sweep_spec(spec));
  ASSERT_EQ(result.kind, Event::Kind::kResult);
  EXPECT_EQ(result.status, "complete");
  ASSERT_TRUE(result.has_stats);
  EXPECT_FALSE(result.stats.resume_discarded_reason.empty())
      << "a rejected journal must be reported, not silently discarded";
  EXPECT_EQ(result.stats.resumed_trials, 0u);

  service.drain();
  service.join();
}

// --- protocol hygiene -----------------------------------------------------

TEST_F(SweepServiceTest, RejectsMalformedRequestsLoudly) {
  SweepService service(config());
  service.start();

  SweepClient client = SweepClient::connect(config().socket_path);
  Event e = client.submit("sweepspec v3 bogus_key=1");
  ASSERT_EQ(e.kind, Event::Kind::kError);
  EXPECT_NE(e.message.find("bogus_key"), std::string::npos);

  e = client.submit("not a spec at all");
  ASSERT_EQ(e.kind, Event::Kind::kError);
  EXPECT_NE(e.message.find("sweepspec"), std::string::npos);

  // The connection survives rejected submits.
  EXPECT_TRUE(client.ping());

  service.drain();
  service.join();
}

TEST_F(SweepServiceTest, DrainRefusesNewWorkButFinishesBacklog) {
  SweepService service(config());
  service.start();
  const std::string socket = config().socket_path;

  SweepClient worker_client = SweepClient::connect(socket);
  Event ack = worker_client.submit(cli::format_sweep_spec(small_spec(808, 64)));
  ASSERT_EQ(ack.kind, Event::Kind::kAck);

  SweepClient admin = SweepClient::connect(socket);
  EXPECT_EQ(admin.drain(), "ok draining");
  const Event refused = admin.submit(cli::format_sweep_spec(small_spec(809, 32)));
  ASSERT_EQ(refused.kind, Event::Kind::kError);
  EXPECT_NE(refused.message.find("drain"), std::string::npos);

  // The in-flight sweep still completes and streams its result.
  Event e = worker_client.next_event();
  while (e.kind == Event::Kind::kProgress) e = worker_client.next_event();
  ASSERT_EQ(e.kind, Event::Kind::kResult);
  EXPECT_EQ(e.status, "complete");

  service.join();
  EXPECT_EQ(service.counters().completed, 1u);
}

TEST_F(SweepServiceTest, ExitedDaemonLeavesEveryConnectionARefusal) {
  // A drained daemon answers each open connection with a final refusal
  // and closes it without resetting the peer: a request sent after the
  // daemon has exited still reads that refusal, never "Connection reset"
  // or "Broken pipe".  Joining before the late submits makes this the
  // worst case, deterministically.
  SweepService service(config());
  service.start();
  const std::string socket = config().socket_path;
  SweepClient admin = SweepClient::connect(socket);
  SweepClient idle = SweepClient::connect(socket);
  ASSERT_TRUE(idle.ping());
  EXPECT_EQ(admin.drain(), "ok draining");
  service.join();

  for (SweepClient* client : {&admin, &idle}) {
    const Event refused = client->submit(cli::format_sweep_spec(small_spec(810, 32)));
    ASSERT_EQ(refused.kind, Event::Kind::kError);
    EXPECT_EQ(refused.message, "server draining; not accepting new work");
    // Nothing follows the refusal: the connection is closed, and the
    // client says so instead of hanging.
    EXPECT_THROW((void)client->ping(), std::runtime_error);
  }
}

TEST_F(SweepServiceTest, ClosedConnectionsReleaseTheirThreads) {
  // Each connection runs on its own thread, and an exited thread keeps its
  // stack mapped until it is joined.  The listener joins the threads of
  // closed connections, so many short-lived clients leave the process's
  // mappings about flat (without the join they grow by two per
  // connection until the daemon exits: +400 here).  A first batch of
  // connections lets the allocator and any sanitizer runtime map their
  // per-thread bookkeeping before the baseline is taken; TSan's still
  // adds a few dozen mappings per 200 threads after that.  Linux: counts
  // /proc/self/maps lines.
  const auto mappings = [] {
    std::ifstream maps("/proc/self/maps");
    return std::count(std::istreambuf_iterator<char>(maps), std::istreambuf_iterator<char>(),
                      '\n');
  };
  SweepService service(config());
  service.start();
  const std::string socket = config().socket_path;
  const auto connect_200 = [&] {
    for (int i = 0; i < 200; ++i) {
      SweepClient client = SweepClient::connect(socket);
      ASSERT_TRUE(client.ping());
    }
  };
  connect_200();
  const auto before = mappings();
  connect_200();
  EXPECT_TRUE(wait_for([&] { return mappings() <= before + 100; }))
      << before << " mappings before 200 connections, " << mappings() << " after";
}

TEST_F(SweepServiceTest, GracefulCloseKeepsTheLastReplyReadable) {
  // Closing a Unix stream with unread input resets the peer: its next
  // read fails with ECONNRESET even though a reply is waiting for it.
  // The server ends connections with close_gracefully(), which must keep
  // that reply readable and turn a later write into a clean EPIPE.
  UnixListener listener(config().socket_path);
  UnixStream client = UnixStream::connect(config().socket_path);
  std::optional<UnixStream> server = listener.accept(5000);
  ASSERT_TRUE(server.has_value());
  server->write_line("error bye");
  // A Unix-socket send lands in the peer's receive queue before it
  // returns, so this request is queued and never read.
  client.write_line("submit late");
  server->close_gracefully();

  std::string line;
  ASSERT_EQ(client.read_line(line, 5000), UnixStream::ReadStatus::kLine);
  EXPECT_EQ(line, "error bye");
  EXPECT_EQ(client.read_line(line, 5000), UnixStream::ReadStatus::kEof);
  EXPECT_THROW(client.write_line("ping"), std::runtime_error);
}

// --- the crash-safety acceptance bar --------------------------------------

TEST_F(SweepServiceTest, StopAndRestartResumesJournaledSweepBitIdentically) {
  // 1024 trials = 16 chunks of 64 on the sweep's single thread, on a graph
  // large enough that the fifteen chunks after the first checkpoint take
  // hundreds of milliseconds: far longer than the progress line takes to
  // reach this thread and its stop() to reach the worker, which stops
  // claiming chunks at once.  The stop interrupts a sweep with real
  // journaled progress and most of its chunks left to resume.
  cli::SweepSpec spec = small_spec(909, /*trials=*/1024);
  spec.graph.n = 10000;
  spec.graph.p = 0.0006;
  const std::uint64_t fp = cli::sweep_fingerprint(spec);

  {
    SweepService service(config());
    service.start();
    SweepClient client = SweepClient::connect(config().socket_path);
    Event e = client.submit(cli::format_sweep_spec(spec));
    ASSERT_EQ(e.kind, Event::Kind::kAck);
    e = client.next_event();
    ASSERT_EQ(e.kind, Event::Kind::kProgress);

    service.stop();
    service.join();
    // The interrupted request survives as durable state.
    EXPECT_TRUE(std::filesystem::exists(service.pending_path(fp)));
    EXPECT_TRUE(std::filesystem::exists(service.journal_path(fp)));
  }

  {
    SweepService service(config());
    service.start();
    EXPECT_EQ(service.counters().recovered_pending, 1u);
    // The recovered job runs with no subscriber; completion shows up as a
    // durable clean result.
    ASSERT_TRUE(wait_for([&] { return service.counters().completed == 1; }));
    EXPECT_FALSE(std::filesystem::exists(service.pending_path(fp)));
    EXPECT_FALSE(std::filesystem::exists(service.journal_path(fp)));

    SweepClient client = SweepClient::connect(config().socket_path);
    const Event served = client.run(cli::format_sweep_spec(spec));
    ASSERT_EQ(served.kind, Event::Kind::kResult);
    EXPECT_TRUE(served.cached);
    ASSERT_TRUE(served.has_stats);
    EXPECT_GT(served.stats.resumed_trials, 0u)
        << "the restarted server must resume the journal, not re-run from scratch";

    const harness::TrialStats direct = cli::run_sweep(spec);
    expect_aggregates_bit_identical(served.stats, direct);

    service.drain();
    service.join();
  }
}

}  // namespace
}  // namespace beepmis::svc
