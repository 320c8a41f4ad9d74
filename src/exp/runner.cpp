#include "exp/runner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/journal.hpp"
#include "mis/verifier.hpp"
#include "sim/batch.hpp"
#include "sim/sharded.hpp"
#include "sim/sharded_batch.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"

namespace beepmis::harness {

void TrialStats::merge(const TrialStats& other) {
  rounds.merge(other.rounds);
  beeps_per_node.merge(other.beeps_per_node);
  max_beeps_any_node.merge(other.max_beeps_any_node);
  mis_size.merge(other.mis_size);
  message_bits.merge(other.message_bits);
  trials += other.trials;
  terminated += other.terminated;
  valid += other.valid;
  independence_violations += other.independence_violations;
  uncovered_nodes += other.uncovered_nodes;
  recovery_rounds.insert(recovery_rounds.end(), other.recovery_rounds.begin(),
                         other.recovery_rounds.end());
  disruptions += other.disruptions;
  unrecovered_disruptions += other.unrecovered_disruptions;
  if (scalar_fallback_reason.empty()) scalar_fallback_reason = other.scalar_fallback_reason;
  requested_trials += other.requested_trials;
  attempted += other.attempted;
  quarantined += other.quarantined;
  retries += other.retries;
  failed_trials.insert(failed_trials.end(), other.failed_trials.begin(),
                       other.failed_trials.end());
  truncated = truncated || other.truncated;
  resumed_trials += other.resumed_trials;
  if (resume_discarded_reason.empty()) resume_discarded_reason = other.resume_discarded_reason;
}

TrialStats::RecoveryQuantiles TrialStats::recovery_quantiles() const {
  RecoveryQuantiles q;
  if (recovery_rounds.empty()) return q;
  std::vector<double> sorted = recovery_rounds;
  std::sort(sorted.begin(), sorted.end());
  q.p50 = support::quantile_sorted(sorted, 0.50);
  q.p95 = support::quantile_sorted(sorted, 0.95);
  q.p99 = support::quantile_sorted(sorted, 0.99);
  return q;
}

TrialStats::Interval TrialStats::ci95(const support::RunningStats& s) {
  const double half = 1.96 * s.stderr_mean();
  return {s.mean() - half, s.mean() + half};
}

namespace {

/// Raw metrics of one trial; collected into trial-indexed slots so the
/// final aggregation order (and hence floating-point result) is identical
/// for every thread count.
struct TrialRecord {
  enum class Status { kCompleted, kQuarantined };

  double rounds = 0;
  double beeps_per_node = 0;
  double max_beeps = 0;
  double mis_size = 0;
  double message_bits = 0;
  bool terminated = false;
  bool valid = false;
  std::size_t independence_violations = 0;
  std::size_t uncovered_nodes = 0;
  std::vector<std::uint32_t> recovery_rounds;
  std::size_t unrecovered_disruptions = 0;
  // Fault-isolation bookkeeping (TrialConfig::isolate_trial_faults).
  Status status = Status::kCompleted;
  unsigned attempts = 1;
  std::string error;  ///< final attempt's exception text when quarantined
};

/// Metric extraction + MIS verification for one finished trial (the
/// per-trial paths).  fill_lane_records below is its batched twin; the two
/// must stay field-identical.
void fill_record(TrialRecord& rec, const graph::Graph& g, const sim::RunResult& result) {
  rec.rounds = static_cast<double>(result.rounds);
  rec.beeps_per_node = result.mean_beeps_per_node();
  std::uint32_t max_beeps = 0;
  for (const std::uint32_t b : result.beep_counts) max_beeps = std::max(max_beeps, b);
  rec.max_beeps = static_cast<double>(max_beeps);
  rec.message_bits = static_cast<double>(result.message_bits);
  rec.terminated = result.terminated;

  const mis::VerificationReport report = mis::verify_mis_run(g, result);
  rec.mis_size = static_cast<double>(report.mis_size);
  rec.valid = report.valid();
  rec.independence_violations = report.independence_violations;
  rec.uncovered_nodes = report.uncovered_nodes;
  rec.recovery_rounds = result.recovery_rounds;
  rec.unrecovered_disruptions = result.unrecovered_disruptions;
}

/// fill_record for every lane of a finished batch, read straight from the
/// simulator's final planes: one verify_mis_lanes pass plus one pass over
/// the node-major beep counts, with no per-lane RunResult in between.
/// Field-identical to fill_record on the extracted lanes: batched runs
/// carry no message bits or recovery samples, and the integer beep total
/// over n is exactly RunResult::mean_beeps_per_node (both sums stay far
/// below 2^53).
void fill_lane_records(std::span<TrialRecord> recs, const graph::Graph& g,
                       const sim::LaneOutcomes& o) {
  const std::vector<mis::VerificationReport> reports = mis::verify_mis_lanes(g, o);
  std::array<std::uint64_t, sim::kMaxBatchLanes> total{};
  std::array<std::uint32_t, sim::kMaxBatchLanes> max_beeps{};
  for (std::size_t v = 0; v < o.n; ++v) {
    const std::uint32_t* counts = &o.beep_counts[v * o.lanes];
    for (unsigned l = 0; l < o.lanes; ++l) {
      total[l] += counts[l];
      max_beeps[l] = std::max(max_beeps[l], counts[l]);
    }
  }
  for (unsigned l = 0; l < o.lanes; ++l) {
    TrialRecord& rec = recs[l];
    const mis::VerificationReport& report = reports[l];
    rec.rounds = static_cast<double>(o.rounds[l]);
    rec.beeps_per_node =
        o.n == 0 ? 0.0 : static_cast<double>(total[l]) / static_cast<double>(o.n);
    rec.max_beeps = static_cast<double>(max_beeps[l]);
    rec.message_bits = 0.0;
    rec.terminated = report.terminated;
    rec.mis_size = static_cast<double>(report.mis_size);
    rec.valid = report.valid();
    rec.independence_violations = report.independence_violations;
    rec.uncovered_nodes = report.uncovered_nodes;
    rec.recovery_rounds.clear();
    rec.unrecovered_disruptions = 0;
  }
}

// run_workers — the shared worker-pool + exception-capture helper — lives
// in support/parallel.hpp so the sharded simulator's per-run worker pool
// funnels through the same policy.
using support::run_workers;

/// Per-worker cooperative trial-timeout handle: the worker re-arms it
/// before every attempt; the worker's simulator checks it at round
/// boundaries (SimConfig::deadline_ns).  nullptr when no timeout is set.
using DeadlinePtr = std::shared_ptr<std::atomic<std::int64_t>>;

DeadlinePtr make_trial_deadline(const TrialConfig& config) {
  if (config.trial_timeout_seconds <= 0.0) return nullptr;
  return std::make_shared<std::atomic<std::int64_t>>(INT64_MAX);
}

void arm_deadline(const DeadlinePtr& deadline, double timeout_seconds) {
  if (deadline == nullptr) return;
  deadline->store(sim::steady_now_ns() + static_cast<std::int64_t>(timeout_seconds * 1e9),
                  std::memory_order_relaxed);
}

/// Chunk-local aggregation of records[first, last) in ascending trial
/// order.  The sweep-wide result is the in-index-order merge of these
/// chunk aggregates — on *every* execution path, journaled or not — which
/// is what makes interrupted-and-resumed sweeps bit-identical to one-shot
/// runs: a chunk's aggregate depends only on its own trials, and the merge
/// order is fixed.  A sweep that fits in one chunk degenerates to exactly
/// the historical single-pass aggregation (merging into an empty
/// accumulator is a copy).
TrialStats aggregate_chunk(const std::vector<TrialRecord>& records, std::size_t first,
                           std::size_t last, std::uint64_t base_seed) {
  TrialStats total;
  for (std::size_t t = first; t < last; ++t) {
    const TrialRecord& rec = records[t];
    ++total.attempted;
    total.retries += rec.attempts > 0 ? rec.attempts - 1 : 0;
    if (rec.status == TrialRecord::Status::kQuarantined) {
      ++total.quarantined;
      total.failed_trials.push_back({t, base_seed, rec.attempts, rec.error});
      continue;
    }
    total.rounds.push(rec.rounds);
    total.beeps_per_node.push(rec.beeps_per_node);
    total.max_beeps_any_node.push(rec.max_beeps);
    total.mis_size.push(rec.mis_size);
    total.message_bits.push(rec.message_bits);
    ++total.trials;
    if (rec.terminated) ++total.terminated;
    if (rec.valid) ++total.valid;
    total.independence_violations += rec.independence_violations;
    total.uncovered_nodes += rec.uncovered_nodes;
    for (const std::uint32_t r : rec.recovery_rounds) {
      total.recovery_rounds.push_back(static_cast<double>(r));
    }
    total.disruptions += rec.recovery_rounds.size() + rec.unrecovered_disruptions;
    total.unrecovered_disruptions += rec.unrecovered_disruptions;
  }
  return total;
}

/// Shared mutable state of one sweep invocation: the chunk ledger, the
/// journal, and the stop signals.  Created by run_beep_trials /
/// run_local_trials and threaded through every execution path.
struct SweepState {
  const TrialConfig* config = nullptr;
  std::size_t chunk_size = 0;
  std::size_t num_chunks = 0;
  /// Trial-indexed records of the current invocation (slots of resumed
  /// chunks stay untouched).
  std::vector<TrialRecord> records;
  /// Completed-chunk aggregates, indexed by chunk; null = not done.
  /// Written/read under checkpoint_mutex during the run; read freely after
  /// the worker join.
  std::vector<std::unique_ptr<TrialStats>> chunk_stats;
  /// Per-chunk count of work units (trials, or batches on the batched
  /// path) still outstanding; the worker that takes it to zero aggregates
  /// and checkpoints the chunk.
  std::unique_ptr<std::atomic<std::size_t>[]> remaining;
  std::unique_ptr<SweepJournal> journal;
  std::mutex checkpoint_mutex;
  std::size_t checkpoints = 0;           ///< chunks completed this invocation
  std::int64_t budget_deadline_ns = 0;   ///< 0 = no budget
  std::atomic<bool> stopped{false};      ///< budget/stop_request observed
  std::size_t resumed_trials = 0;
  std::string resume_discarded_reason;

  [[nodiscard]] std::size_t chunk_first(std::size_t chunk) const noexcept {
    return chunk * chunk_size;
  }
  [[nodiscard]] std::size_t chunk_last(std::size_t chunk) const noexcept {
    return std::min(chunk_first(chunk) + chunk_size, config->trials);
  }

  /// Checked at trial/batch claim boundaries: in-flight work always
  /// finishes, so a stop truncates the sweep at clean boundaries only.
  [[nodiscard]] bool should_stop() noexcept {
    if (stopped.load(std::memory_order_relaxed)) return true;
    const bool expired =
        (budget_deadline_ns != 0 && sim::steady_now_ns() > budget_deadline_ns) ||
        (config->stop_request != nullptr &&
         config->stop_request->load(std::memory_order_relaxed));
    if (expired) stopped.store(true, std::memory_order_relaxed);
    return expired;
  }
};

/// Aggregates a freshly completed chunk, snapshots the journal, and fires
/// the on_checkpoint hook.  Called by exactly one worker per chunk (the one
/// whose claim took SweepState::remaining[chunk] to zero).
void finish_chunk(SweepState& sweep, std::size_t chunk) {
  auto stats = std::make_unique<TrialStats>(aggregate_chunk(
      sweep.records, sweep.chunk_first(chunk), sweep.chunk_last(chunk),
      sweep.config->base_seed));
  const std::lock_guard<std::mutex> lock(sweep.checkpoint_mutex);
  sweep.chunk_stats[chunk] = std::move(stats);
  if (sweep.journal != nullptr) {
    std::vector<JournalChunk> done;
    for (std::size_t i = 0; i < sweep.num_chunks; ++i) {
      if (sweep.chunk_stats[i] != nullptr) done.push_back({i, *sweep.chunk_stats[i]});
    }
    sweep.journal->save(done);
  }
  ++sweep.checkpoints;
  if (sweep.config->on_checkpoint) sweep.config->on_checkpoint(sweep.checkpoints);
}

/// Final assembly: completed chunks merged in ascending index order.
TrialStats assemble(SweepState& sweep) {
  TrialStats total;
  std::size_t done = 0;
  for (std::size_t chunk = 0; chunk < sweep.num_chunks; ++chunk) {
    if (sweep.chunk_stats[chunk] == nullptr) continue;
    total.merge(*sweep.chunk_stats[chunk]);
    ++done;
  }
  total.requested_trials = sweep.config->trials;
  total.truncated = done < sweep.num_chunks;
  total.resumed_trials = sweep.resumed_trials;
  total.resume_discarded_reason = sweep.resume_discarded_reason;
  return total;
}

/// The journal's request key: every knob of the sweep the harness can see
/// that affects the numeric result, plus the caller's fingerprint for
/// everything it cannot (graph family, protocol, scenario parameters).
/// Thread count is deliberately excluded — results are thread-count
/// independent, so a sweep may be resumed with different parallelism.
std::uint64_t compute_request_hash(const TrialConfig& c, bool local, std::size_t chunk_size,
                                   const ExecutionPlan& plan) {
  support::StableHash h;
  h.update(local ? "beepmis-local-sweep-v1" : "beepmis-beep-sweep-v1");
  h.update_u64(c.request_fingerprint);
  h.update_u64(c.trials);
  h.update_u64(c.base_seed);
  // The raw execution-path knobs (rng_mode, allow_batched, allow_sharded,
  // shards) are excluded like the thread count: every path that draws in
  // scalar order is bit-identical, so a journal written by a scalar run may
  // be finished by a batched or sharded one.  What does change the numbers
  // is the plan's effective draw order — kStatisticalLanes engages only on
  // the batched paths — and, on the sharded-batched path, its shard count,
  // which partitions the statistical streams per (shard, lane).  Hash those
  // two (K = 0 off that path).  Auto-selected routes follow the thread
  // count, so such a journal resumed on a different core count may be
  // rejected whole and the sweep restarts: correct, just not incremental.
  // Pin TrialConfig::shards explicitly to keep resumes incremental across
  // machines.
  h.update_u64(plan.rng_mode == sim::BatchRngMode::kStatisticalLanes ? 1 : 0);
  h.update_u64(plan.path == ExecutionPath::kShardedBatched ? plan.shards : 0);
  h.update_u64(c.shared_graph ? 1 : 0);
  h.update_u64(chunk_size);
  h.update_u64(c.sim.max_rounds);
  h.update_double(c.sim.beep_loss_probability);
  h.update_u64(c.sim.record_trace ? 1 : 0);
  h.update_u64(c.sim.mis_keepalive ? 1 : 0);
  h.update_u64(c.sim.run_until_round);
  h.update_u64(c.sim.track_recovery ? 1 : 0);
  h.update_u64(c.sim.wake_round.size());
  for (const std::uint32_t w : c.sim.wake_round) h.update_u64(w);
  h.update_u64(c.sim.crash_round.size());
  for (const std::uint32_t r : c.sim.crash_round) h.update_u64(r);
  h.update_u64(c.scenario ? 1 : 0);
  h.update_u64(c.local_sim.max_rounds);
  return h.digest();
}

void validate_sweep_config(const TrialConfig& config, const char* who) {
  const auto bad = [&](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (!(config.budget_seconds >= 0.0)) bad("budget_seconds must be >= 0 (and not NaN)");
  if (!(config.trial_timeout_seconds >= 0.0)) {
    bad("trial_timeout_seconds must be >= 0 (and not NaN)");
  }
  if (config.checkpoint_interval == 0) bad("checkpoint_interval must be >= 1");
  if (config.resume && config.journal_path.empty()) {
    bad("resume requires journal_path (nothing to resume from)");
  }
}

/// Rounds the checkpoint interval up to a multiple of the batched
/// simulator's lane count so chunk boundaries coincide with batch
/// boundaries: the statistical-lanes mode keys each 64-trial batch's RNG
/// stream by its first trial index, so chunks must contain whole batches
/// for resumed runs to replay the exact same batches.
std::size_t effective_chunk_size(const TrialConfig& config) {
  return effective_checkpoint_interval(config.checkpoint_interval);
}

void init_sweep(SweepState& sweep, const TrialConfig& config, bool local,
                const ExecutionPlan& plan) {
  sweep.config = &config;
  sweep.chunk_size = effective_chunk_size(config);
  sweep.num_chunks =
      config.trials == 0 ? 0 : (config.trials + sweep.chunk_size - 1) / sweep.chunk_size;
  sweep.records.resize(config.trials);
  sweep.chunk_stats.resize(sweep.num_chunks);
  sweep.remaining = std::make_unique<std::atomic<std::size_t>[]>(sweep.num_chunks);
  for (std::size_t i = 0; i < sweep.num_chunks; ++i) {
    sweep.remaining[i].store(0, std::memory_order_relaxed);
  }
  if (!config.journal_path.empty()) {
    const std::uint64_t request =
        compute_request_hash(config, local, sweep.chunk_size, plan);
    sweep.journal = std::make_unique<SweepJournal>(config.journal_path, request, config.trials,
                                                   sweep.chunk_size);
    if (config.resume) {
      JournalLoadResult loaded = sweep.journal->load();
      switch (loaded.status) {
        case JournalLoadResult::Status::kNoFile:
          break;
        case JournalLoadResult::Status::kValid:
          for (JournalChunk& chunk : loaded.chunks) {
            sweep.resumed_trials +=
                sweep.chunk_last(chunk.index) - sweep.chunk_first(chunk.index);
            sweep.chunk_stats[chunk.index] =
                std::make_unique<TrialStats>(std::move(chunk.stats));
          }
          break;
        case JournalLoadResult::Status::kRejected:
          // Reject whole, restart from scratch; the final stats still
          // converge to the uninterrupted run's because every chunk is
          // recomputed from its seeds.
          sweep.resume_discarded_reason = std::move(loaded.reason);
          break;
      }
    }
  }
  if (config.budget_seconds > 0.0) {
    sweep.budget_deadline_ns =
        sim::steady_now_ns() + static_cast<std::int64_t>(config.budget_seconds * 1e9);
  }
}

/// Runs `attempt` under the sweep's fault-isolation policy: without
/// isolate_trial_faults the first exception propagates (fail-fast, the
/// historical behaviour); with it, failed attempts are retried with
/// bounded exponential backoff and the outcome reports quarantine.
struct AttemptOutcome {
  bool completed = true;
  unsigned attempts = 1;
  std::string error;
};

template <typename Attempt>
AttemptOutcome run_with_isolation(const TrialConfig& config, const DeadlinePtr& deadline,
                                  Attempt&& attempt) {
  const unsigned attempts_allowed =
      config.isolate_trial_faults ? 1 + config.max_retries : 1;
  unsigned backoff_ms = std::min(config.retry_backoff_ms, config.max_retry_backoff_ms);
  for (unsigned attempt_no = 1;; ++attempt_no) {
    try {
      arm_deadline(deadline, config.trial_timeout_seconds);
      attempt();
      return {true, attempt_no, {}};
    } catch (...) {
      if (!config.isolate_trial_faults) throw;
      if (attempt_no >= attempts_allowed) {
        return {false, attempt_no,
                support::detail::exception_message(std::current_exception())};
      }
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
      backoff_ms = std::min(backoff_ms == 0 ? 1u : backoff_ms * 2, config.max_retry_backoff_ms);
    }
  }
}

void quarantine_record(TrialRecord& rec, const AttemptOutcome& outcome) {
  rec = TrialRecord{};  // drop any partial metrics from the failed attempt
  rec.status = TrialRecord::Status::kQuarantined;
  rec.attempts = outcome.attempts;
  rec.error = outcome.error;
}

/// Trial 0's graph: the graph every trial of a shared-graph sweep reuses,
/// and the lone trial's graph of a one-trial sweep.
graph::Graph build_trial0_graph(const GraphFactory& graphs, std::uint64_t base_seed) {
  auto rng = support::SeedSequence(base_seed).child(0).child(0).generator();
  return graphs(rng);
}

sim::SimConfig with_deadline(sim::SimConfig config, const DeadlinePtr& deadline) {
  config.deadline_ns = deadline;
  return config;
}

/// The loop every execution path runs.  The pending chunks (resumed ones
/// are skipped whole) are cut into units of `unit_size` consecutive trials:
/// single trials on the per-trial paths, 64-lane batches on the batched
/// ones, which chunks hold whole (effective_chunk_size).  Workers claim
/// whole units, so fault isolation and stop checks act per unit — a batch
/// that exhausts its retries quarantines all of its trials — and the worker
/// that completes a chunk's last unit checkpoints it.  `make_unit(deadline)`
/// is called once per worker and returns that worker's `run(first, last)`,
/// which fills records [first, last) with a simulator and protocol it owns;
/// reusing them across units amortises all per-node scratch, and results
/// are unaffected because a run is a pure function of (graph, protocol,
/// seed).
template <typename MakeUnit>
void run_units(const TrialConfig& config, unsigned workers, std::size_t unit_size,
               SweepState& sweep, MakeUnit&& make_unit) {
  struct Unit {
    std::size_t first = 0, last = 0;
  };
  std::vector<Unit> pending;
  for (std::size_t chunk = 0; chunk < sweep.num_chunks; ++chunk) {
    if (sweep.chunk_stats[chunk] != nullptr) continue;
    const std::size_t last = sweep.chunk_last(chunk);
    std::size_t units_in_chunk = 0;
    for (std::size_t first = sweep.chunk_first(chunk); first < last; first += unit_size) {
      pending.push_back({first, std::min(first + unit_size, last)});
      ++units_in_chunk;
    }
    sweep.remaining[chunk].store(units_in_chunk, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    const DeadlinePtr deadline = make_trial_deadline(config);
    auto run = make_unit(deadline);
    for (;;) {
      if (sweep.should_stop()) break;
      const std::size_t i = next.fetch_add(1);
      if (i >= pending.size()) break;
      const Unit unit = pending[i];

      const AttemptOutcome outcome =
          run_with_isolation(config, deadline, [&] { run(unit.first, unit.last); });
      for (std::size_t trial = unit.first; trial < unit.last; ++trial) {
        TrialRecord& rec = sweep.records[trial];
        if (outcome.completed) {
          rec.status = TrialRecord::Status::kCompleted;
          rec.attempts = outcome.attempts;
        } else {
          quarantine_record(rec, outcome);
        }
      }

      const std::size_t chunk = unit.first / sweep.chunk_size;
      if (sweep.remaining[chunk].fetch_sub(1) == 1) finish_chunk(sweep, chunk);
    }
  };
  run_workers(workers, pending.size(), worker);
}

/// Per-trial loop: each worker's simulator, from `make_simulator(deadline)`,
/// runs every trial it claims on `shared` or, when that is null, on the
/// trial's own graph built from the trial's seed.
template <typename ProtocolFactory, typename MakeSimulator>
void run_per_trial(const GraphFactory& graphs, const graph::Graph* shared,
                   const ProtocolFactory& protocols, const TrialConfig& config, unsigned workers,
                   SweepState& sweep, MakeSimulator&& make_simulator) {
  const support::SeedSequence root(config.base_seed);
  run_units(config, workers, 1, sweep, [&](const DeadlinePtr& deadline) {
    return [&, simulator = make_simulator(deadline), protocol = protocols()](
               std::size_t trial, std::size_t /*last*/) mutable {
      const support::SeedSequence trial_seed = root.child(trial);
      graph::Graph own;
      const graph::Graph* g = shared;
      if (g == nullptr) {
        auto graph_rng = trial_seed.child(0).generator();
        own = graphs(graph_rng);
        g = &own;
      }
      fill_record(sweep.records[trial], *g,
                  simulator.run(*g, *protocol, trial_seed.child(1).generator()));
    };
  });
}

/// The lanes of one batch, trials [first, last).  kScalarOrder: lane l
/// draws from trial first+l's own stream, so it is bit-identical to that
/// trial's scalar run.  kStatisticalLanes: one base stream, keyed by the
/// batch's first trial index, is jump()-partitioned into the lane streams
/// inside the simulator, so records stay deterministic for any thread
/// count (per (base_seed, trials, mode), not per trial seed).
sim::LaneOutcomes run_batch(sim::BatchSimulator& simulator, const graph::Graph& g,
                            sim::BatchProtocol& kernel, const support::SeedSequence& root,
                            std::size_t first, std::size_t last) {
  if (simulator.rng_mode() == sim::BatchRngMode::kStatisticalLanes) {
    return simulator.run_outcomes(g, kernel, root.child(first).child(1).generator(),
                                  static_cast<unsigned>(last - first));
  }
  std::vector<support::Xoshiro256StarStar> rngs;
  rngs.reserve(last - first);
  for (std::size_t trial = first; trial < last; ++trial) {
    rngs.push_back(root.child(trial).child(1).generator());
  }
  return simulator.run_outcomes(g, kernel, std::move(rngs));
}

/// Sharded-batched lanes (statistical only), seeded exactly like the
/// batched statistical path.  The (shard, lane) stream partition makes the
/// sample depend on the shard count, except at K = 1, where it coincides
/// with BatchSimulator's.
sim::LaneOutcomes run_batch(sim::ShardedBatchSimulator& simulator,
                            const graph::Graph& /*bound*/, sim::BatchProtocol& kernel,
                            const support::SeedSequence& root, std::size_t first,
                            std::size_t last) {
  return simulator.run_outcomes(kernel, root.child(first).child(1).generator(),
                                static_cast<unsigned>(last - first));
}

/// Per-batch loop over the shared graph: each worker's simulator, from
/// `make_simulator(deadline)`, runs every batch it claims as lanes of one
/// batched kernel and reads the batch's records straight from its final
/// planes (fill_lane_records).  Seeds, records and the chunked aggregation
/// are the per-trial loop's, so in kScalarOrder TrialStats match the
/// scalar path exactly.
template <typename MakeSimulator>
void run_per_batch(const graph::Graph& shared, const BeepProtocolFactory& protocols,
                   const TrialConfig& config, const ExecutionPlan& plan, SweepState& sweep,
                   MakeSimulator&& make_simulator) {
  const support::SeedSequence root(config.base_seed);
  run_units(config, plan.workers, sim::kMaxBatchLanes, sweep, [&](const DeadlinePtr& deadline) {
    std::unique_ptr<sim::BatchProtocol> kernel = protocols()->make_batch_protocol(plan.rng_mode);
    if (!kernel) {
      // The planning probe saw a kernel but this worker's instance refuses
      // one: the factory returns protocols of varying dynamic type.
      throw std::logic_error(
          "run_beep_trials: protocol factory is inconsistent about make_batch_protocol");
    }
    return [&, simulator = make_simulator(deadline), kernel = std::move(kernel)](
               std::size_t first, std::size_t last) mutable {
      fill_lane_records(std::span(sweep.records).subspan(first, last - first), shared,
                        run_batch(simulator, shared, *kernel, root, first, last));
    };
  });
}

/// Runs the sweep on the planned path.  `shared` is trial 0's graph when it
/// was built up front, null when every trial builds its own.
void execute(const ExecutionPlan& plan, const GraphFactory& graphs, const graph::Graph* shared,
             const BeepProtocolFactory& protocols, const TrialConfig& config,
             SweepState& sweep) {
  switch (plan.path) {
    case ExecutionPath::kScalar:
      run_per_trial(graphs, shared, protocols, config, plan.workers, sweep,
                    [&](const DeadlinePtr& deadline) {
                      sim::SimConfig sim_config = with_deadline(config.sim, deadline);
                      // A live scenario is stateful: each worker owns an
                      // instance, which BeepSimulator::run resets every trial.
                      if (config.scenario) sim_config.scenario = config.scenario();
                      return sim::BeepSimulator(std::move(sim_config));
                    });
      return;
    case ExecutionPath::kSharded:
      run_per_trial(graphs, shared, protocols, config, plan.workers, sweep,
                    [&](const DeadlinePtr& deadline) {
                      return sim::ShardedSimulator(plan.shards,
                                                   with_deadline(config.sim, deadline));
                    });
      return;
    case ExecutionPath::kBatched:
      run_per_batch(*shared, protocols, config, plan, sweep, [&](const DeadlinePtr& deadline) {
        return sim::BatchSimulator(with_deadline(config.sim, deadline), plan.rng_mode);
      });
      return;
    case ExecutionPath::kShardedBatched:
      run_per_batch(*shared, protocols, config, plan, sweep, [&](const DeadlinePtr& deadline) {
        return sim::ShardedBatchSimulator(*shared, plan.shards,
                                          with_deadline(config.sim, deadline), plan.rng_mode);
      });
      return;
  }
}

}  // namespace

std::size_t effective_checkpoint_interval(std::size_t checkpoint_interval) {
  const std::size_t lanes = sim::kMaxBatchLanes;
  const std::size_t requested = std::max<std::size_t>(checkpoint_interval, 1);
  return ((requested + lanes - 1) / lanes) * lanes;
}

std::size_t checkpoint_chunk_count(std::size_t trials, std::size_t checkpoint_interval) {
  const std::size_t chunk = effective_checkpoint_interval(checkpoint_interval);
  return trials == 0 ? 0 : (trials + chunk - 1) / chunk;
}

ExecutionPlan plan_execution(const TrialConfig& config, std::size_t shared_nodes,
                             const ProtocolProbe& protocol, const LiveScenario* scenario) {
  const unsigned threads = config.threads != 0
                               ? config.threads
                               : std::max(1u, std::thread::hardware_concurrency());
  ExecutionPlan plan;
  plan.workers = threads;

  // Live scenarios and recovery tracking observe or drive a run event by
  // event, which only the scalar simulator does.
  if (scenario != nullptr) {
    const std::string& name = scenario->name;
    switch (scenario->kind) {
      case sim::ScenarioKind::kStaticSchedule:
        plan.reason = "scenario '" + name +
                      "' runs live on the scalar simulator (materialising needs "
                      "shared_graph and an empty crash_round)";
        break;
      case sim::ScenarioKind::kObliviousStream:
        plan.reason = "scenario '" + name +
                      "' emits dynamic events (revives/churn): scalar simulator only";
        break;
      case sim::ScenarioKind::kAdaptive:
        plan.reason = "scenario '" + name +
                      "' is adaptive (observes live run state): batched/sharded fast "
                      "paths refused, scalar simulator only";
        break;
    }
    return plan;
  }
  if (config.sim.track_recovery) {
    plan.reason = "recovery tracking is scalar-only: batched/sharded fast paths refused";
    return plan;
  }

  const bool statistical = config.rng_mode == sim::BatchRngMode::kStatisticalLanes;
  const bool batchable = config.allow_batched && config.shared_graph && config.trials > 0 &&
                         !config.sim.record_trace && protocol.batch_kernel;
  const bool shardable = config.allow_sharded && config.shards != 1 && config.trials > 0 &&
                         !config.sim.record_trace && protocol.shard_support;
  // Auto mode shards only a graph big enough for the per-exchange barriers
  // to pay off, and only with threads to spare.
  const bool auto_shard =
      config.shards == 0 && threads >= 2 && shared_nodes >= config.auto_shard_min_nodes;

  // Sharded-batched: every core and every lane at once.  Statistical lanes
  // only (the streams are partitioned per (shard, lane)), and only for more
  // than one batch, which amortises the barriers.
  if (statistical && batchable && shardable && config.trials > sim::kMaxBatchLanes &&
      (config.shards >= 2 || auto_shard)) {
    plan.path = ExecutionPath::kShardedBatched;
    plan.shards = config.shards >= 2
                      ? config.shards
                      : std::min(threads, sim::ShardedBatchSimulator::kMaxShards);
    plan.workers = 1;
    plan.rng_mode = config.rng_mode;
    return plan;
  }

  // Sharded, in scalar draw order (bit-identical to scalar): every trial
  // when the shard count is explicit; an explicit count beyond the
  // simulator's ceiling throws there.
  if (shardable && config.shards >= 2) {
    plan.path = ExecutionPath::kSharded;
    plan.shards = config.shards;
    plan.workers = 1;
    return plan;
  }
  // Auto mode shards only a lone trial — with several, trial-level
  // parallelism already fills the machine — and clamps to the ceiling, so
  // it never rejects a config that ran before sharding existed.  A lone
  // trial too small to shard runs scalar: it would fill one lane of a
  // 64-lane batch.
  if (shardable && config.trials == 1 && threads >= 2) {
    if (auto_shard) {
      plan.path = ExecutionPath::kSharded;
      plan.shards = std::min(threads, sim::ShardedSimulator::kMaxShards);
      plan.workers = 1;
    }
    return plan;
  }

  // Batched.  In kScalarOrder a lossy tail-dominated sweep (loss,
  // keep-alive and a run_until tail) stays scalar: every potential
  // keep-alive delivery consumes its own per-lane Bernoulli, nothing
  // amortises, and batching loses to scalar (0.6-0.9x in BENCH_core.json).
  // Statistical lanes' bulk loss planes flip that trade back.
  const bool lossy_tail = config.sim.beep_loss_probability > 0.0 && config.sim.mis_keepalive &&
                          config.sim.run_until_round > 0;
  if (batchable && (statistical || !lossy_tail)) {
    plan.path = ExecutionPath::kBatched;
    plan.rng_mode = config.rng_mode;
  }
  return plan;
}

TrialStats run_beep_trials(const GraphFactory& graphs, const BeepProtocolFactory& protocols,
                           const TrialConfig& config) {
  if (config.sim.scenario != nullptr) {
    throw std::invalid_argument(
        "run_beep_trials: set TrialConfig::scenario (a factory), not "
        "SimConfig::scenario — every worker thread needs its own stateful instance");
  }
  if (config.sim.deadline_ns != nullptr) {
    throw std::invalid_argument(
        "run_beep_trials: set TrialConfig::trial_timeout_seconds, not "
        "SimConfig::deadline_ns — each worker thread arms its own per-attempt deadline");
  }
  validate_sweep_config(config, "run_beep_trials");

  ProtocolProbe capabilities;
  {
    const std::unique_ptr<sim::BeepProtocol> probe = protocols();
    capabilities.shard_support = probe->shard_support().supported;
    capabilities.batch_kernel = probe->make_batch_protocol(config.rng_mode) != nullptr;
  }
  std::unique_ptr<sim::FaultScenario> scenario;
  if (config.scenario) {
    scenario = config.scenario();
    if (scenario == nullptr) {
      throw std::invalid_argument("run_beep_trials: scenario factory returned nullptr");
    }
  }

  TrialConfig cfg = config;
  const bool one_graph = cfg.shared_graph || cfg.trials == 1;
  graph::Graph shared;
  if (one_graph) shared = build_trial0_graph(graphs, cfg.base_seed);

  std::optional<LiveScenario> live;
  if (scenario != nullptr) {
    if (scenario->kind() == sim::ScenarioKind::kStaticSchedule && cfg.shared_graph &&
        cfg.sim.crash_round.empty()) {
      // The schedule is a pure function of (graph, scenario config), so
      // fold it into the static crash vector once and keep every fast path
      // — the run is bit-identical to executing the scenario live through
      // the scalar driver.
      cfg.sim.crash_round = scenario->materialize_crash_rounds(shared);
      cfg.scenario = nullptr;
    } else {
      live = LiveScenario{scenario->kind(), std::string(scenario->name())};
    }
  }

  const ExecutionPlan plan = plan_execution(cfg, one_graph ? shared.node_count() : 0,
                                            capabilities, live ? &*live : nullptr);

  // The journal's request key hashes the routed config: the materialised
  // crash_round (a pure function of the caller's config, so an interrupted
  // invocation and its resume agree on it) and the plan's draw order.
  SweepState sweep;
  init_sweep(sweep, cfg, /*local=*/false, plan);
  execute(plan, graphs, one_graph ? &shared : nullptr, protocols, cfg, sweep);
  TrialStats stats = assemble(sweep);
  stats.scalar_fallback_reason = plan.reason;
  return stats;
}

TrialStats run_local_trials(const GraphFactory& graphs, const LocalProtocolFactory& protocols,
                            const TrialConfig& config) {
  if (config.scenario || config.sim.scenario != nullptr) {
    throw std::invalid_argument(
        "run_local_trials: fault scenarios are a beeping-model feature");
  }
  validate_sweep_config(config, "run_local_trials");
  SweepState sweep;
  init_sweep(sweep, config, /*local=*/true, ExecutionPlan{});
  graph::Graph shared;
  if (config.shared_graph) shared = build_trial0_graph(graphs, config.base_seed);
  // The LOCAL-model simulator has no cooperative deadline hook, so
  // trial_timeout_seconds is not enforced here; budget expiry still
  // truncates at trial boundaries.
  run_per_trial(graphs, config.shared_graph ? &shared : nullptr, protocols, config,
                config.threads, sweep,
                [&](const DeadlinePtr&) { return sim::LocalSimulator(config.local_sim); });
  return assemble(sweep);
}

}  // namespace beepmis::harness
