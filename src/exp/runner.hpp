// Multi-threaded trial runner: executes many independent (graph, protocol)
// trials and aggregates the metrics the paper reports.  Results are
// deterministic in the base seed regardless of thread count, because each
// trial derives its own seed tree and writes into its own slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/beep.hpp"
#include "sim/local.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace beepmis::harness {

/// Builds the trial's graph from the trial's graph RNG.  Called once per
/// trial (each trial gets a fresh random graph, matching the paper's
/// methodology of averaging over random networks) unless
/// TrialConfig::shared_graph is set.
using GraphFactory = std::function<graph::Graph(support::Xoshiro256StarStar&)>;

/// Creates a fresh protocol instance (protocols are stateful per run).
using BeepProtocolFactory = std::function<std::unique_ptr<sim::BeepProtocol>()>;
using LocalProtocolFactory = std::function<std::unique_ptr<sim::LocalProtocol>()>;
/// Creates a fresh fault-scenario instance (scenarios are stateful per
/// run, so every worker thread needs its own; see TrialConfig::scenario).
using FaultScenarioFactory = std::function<std::unique_ptr<sim::FaultScenario>()>;

struct TrialConfig {
  std::size_t trials = 100;
  std::uint64_t base_seed = 0x5eed;
  /// 0 = use hardware concurrency.
  unsigned threads = 0;
  /// Generate the graph once (from trial 0's graph seed) and reuse it for
  /// every trial instead of resampling per trial.
  bool shared_graph = false;
  /// Permit the batched 64-lane fast path.  It engages automatically when
  /// shared_graph is set, the protocol provides a batched kernel
  /// (BeepProtocol::make_batch_protocol), no trace is recorded, and — in
  /// the default kScalarOrder mode — the workload is not a lossy
  /// tail-dominated sweep (where per-lane delivery draws make batching a
  /// pessimisation; see BENCH_core.json's lossy-tail rows).  In
  /// kScalarOrder results are bit-identical to the scalar path either way,
  /// so this exists only for A/B testing and benchmarking the two paths.
  bool allow_batched = true;
  /// Draw-entropy policy of the batched fast path.  kScalarOrder (the
  /// default) keeps every trial bit-identical to the scalar path.
  /// kStatisticalLanes opts into jump()-partitioned per-lane streams and
  /// bulk cross-lane Bernoulli planes: the same per-trial marginal
  /// distributions from a different sample, which lifts the converge-phase
  /// batching ceiling and makes lossy tail-dominated sweeps batchable
  /// again.  TrialStats stay deterministic per (base_seed, trials, mode)
  /// and thread count, but are not comparable seed-for-seed with
  /// kScalarOrder runs.  It also unlocks the sharded-batched path (see
  /// `shards`); scalar and single-run sharded execution always draw in
  /// scalar order.
  sim::BatchRngMode rng_mode = sim::BatchRngMode::kScalarOrder;
  /// Shard-parallel execution (sim/sharded.hpp, sim/sharded_batch.hpp).
  /// 0 = auto: a lone trial on a graph of at least `auto_shard_min_nodes`
  /// nodes runs on the scalar-order sharded simulator across `threads`
  /// (default: hardware) shards, bit-identical to the scalar path; a
  /// kStatisticalLanes sweep of more than one 64-trial batch on such a
  /// graph runs sharded-batched — every batch swept by `threads` shards
  /// at once.  1 = never.  >= 2 = force that shard count: scalar-order
  /// sweeps run every trial on the sharded simulator (bit-identical to
  /// scalar), and eligible kStatisticalLanes sweeps run sharded-batched.
  /// Either way the outer trial loop goes single-worker, since each run
  /// already uses `shards` threads.  Scalar-order shard routing never
  /// changes the numbers; the sharded-batched path partitions the
  /// statistical streams per (shard, lane), so its results are
  /// deterministic per (base_seed, trials, shard count) but a different
  /// sample than the unsharded statistical path — the same trade
  /// kStatisticalLanes already made, one axis further.
  unsigned shards = 0;
  /// Opt-out mirror of allow_batched for the sharded paths (both the
  /// single-run scalar-order one and the sharded-batched one).
  bool allow_sharded = true;
  /// Auto-sharding size threshold: below this a run is too small for the
  /// per-exchange barriers to pay off.  Exposed for tests.
  std::size_t auto_shard_min_nodes = std::size_t{1} << 18;
  /// Fault scenario for every trial (see sim/scenario.hpp).  Set this —
  /// not SimConfig::scenario, which run_beep_trials rejects — so the
  /// harness can hand each worker thread its own instance.  Routing by
  /// ScenarioKind: a kStaticSchedule scenario on a shared graph with empty
  /// crash_round is materialised into SimConfig::crash_round once, keeping
  /// the batched/sharded fast paths (bit-identical to the equivalent
  /// static-vector run); anything else — adaptive or dynamic-event
  /// scenarios, per-trial graphs, recovery tracking — runs on the scalar
  /// simulator, with the reason surfaced in
  /// TrialStats::scalar_fallback_reason.
  FaultScenarioFactory scenario;
  sim::SimConfig sim;
  sim::LocalSimConfig local_sim;

  // --- Crash-safe sweep controls (see src/exp/README.md, "Crash-safe
  // sweeps").  All default to off, preserving the historical fail-fast,
  // run-to-completion semantics exactly. ---

  /// Durable checkpoint journal (exp/journal.hpp).  Empty = no journaling.
  /// The sweep snapshots per-chunk aggregates to this path (atomically:
  /// write-temp-then-rename) every time a chunk of `checkpoint_interval`
  /// trials completes.
  std::string journal_path;
  /// Load `journal_path` before running and skip every chunk it already
  /// holds.  A journal whose request hash does not match this config (or
  /// that fails its content checksum) is rejected *whole* — never half
  /// loaded — and the sweep restarts from scratch, with the reason surfaced
  /// in TrialStats::resume_discarded_reason.  A resumed sweep's final stats
  /// are bit-identical to an uninterrupted run's.
  bool resume = false;
  /// Caller-supplied identity of everything the harness cannot see: graph
  /// family + parameters, protocol identity, scenario parameters.  Mixed
  /// into the journal's request hash so a journal from a different sweep is
  /// rejected instead of silently merged.  (The harness hashes its own
  /// visible knobs — trials, base_seed, rng_mode, fault vectors, … — on top
  /// of this.)
  std::uint64_t request_fingerprint = 0;
  /// Trials per checkpoint chunk.  Rounded up to a multiple of the batched
  /// simulator's 64 lanes so chunk boundaries coincide with batch
  /// boundaries on every execution path (aggregation is chunked
  /// identically everywhere — that is what makes resumed, interrupted and
  /// cross-path runs bit-identical; see src/exp/README.md).
  std::size_t checkpoint_interval = 64;
  /// Wall-clock budget for this invocation (0 = unlimited).  When it
  /// expires, workers stop claiming trials, in-flight trials finish, and
  /// the sweep returns the chunks completed so far with truncated = true —
  /// an honest partial answer (fewer samples => wider confidence
  /// intervals) instead of no answer.  Resume later to finish.
  double budget_seconds = 0.0;
  /// Per-trial-attempt wall-clock timeout (0 = unlimited), enforced
  /// cooperatively by the simulators at round boundaries via
  /// SimConfig::deadline_ns.  A timed-out attempt throws sim::RunCancelled:
  /// with isolate_trial_faults it is retried / quarantined like any other
  /// trial fault; without it, it fails the sweep (fail-fast).
  double trial_timeout_seconds = 0.0;
  /// Per-trial fault isolation.  false (default): the first trial exception
  /// aborts the sweep (historical fail-fast semantics).  true: a throwing
  /// trial is retried up to `max_retries` times with bounded exponential
  /// backoff, then quarantined — recorded in TrialStats::failed_trials and
  /// excluded from the metric aggregates, while the sweep completes.
  /// Retries rerun the identical (seed-pure) computation, so they help with
  /// transient faults (timeouts under load, resource exhaustion), not
  /// deterministic protocol bugs — those quarantine after max_retries.
  bool isolate_trial_faults = false;
  /// Extra attempts after the first failure (isolate_trial_faults only).
  unsigned max_retries = 2;
  /// First retry backoff; doubles per retry, capped at max_retry_backoff_ms.
  unsigned retry_backoff_ms = 1;
  unsigned max_retry_backoff_ms = 100;
  /// Cooperative external stop (e.g. a signal handler): when set to true,
  /// workers stop claiming trials at the next trial boundary and the sweep
  /// returns truncated, exactly like budget expiry.
  std::shared_ptr<std::atomic<bool>> stop_request;
  /// Test/observability hook: invoked after every completed chunk (after
  /// the journal snapshot, when journaling) with the number of chunks
  /// completed by this invocation so far.  Called under the checkpoint
  /// lock — keep it cheap and do not call back into the harness.
  std::function<void(std::size_t chunks_completed)> on_checkpoint;
};

/// A trial that exhausted its retry budget and was excluded from the
/// metric aggregates (TrialConfig::isolate_trial_faults).
struct FailedTrial {
  std::size_t trial = 0;        ///< trial index within the sweep
  std::uint64_t base_seed = 0;  ///< sweep base seed (trial seed = child(trial))
  unsigned attempts = 0;        ///< attempts consumed (1 + retries)
  std::string error;            ///< what() of the final attempt's exception
};

/// Aggregated metrics across trials.
struct TrialStats {
  support::RunningStats rounds;
  support::RunningStats beeps_per_node;
  support::RunningStats max_beeps_any_node;
  support::RunningStats mis_size;
  support::RunningStats message_bits;
  std::size_t trials = 0;
  std::size_t terminated = 0;
  /// Trials whose final state passed full MIS verification.
  std::size_t valid = 0;
  /// Total violation counts summed over trials (nonzero only under faults).
  std::size_t independence_violations = 0;
  std::size_t uncovered_nodes = 0;
  /// Recovery-SLA samples across all trials, in trial order (populated
  /// only when SimConfig::track_recovery is set): rounds from each
  /// disruption to the next quiescent-and-valid state.
  std::vector<double> recovery_rounds;
  /// Disruptions opened across trials (== recovery_rounds.size() +
  /// unrecovered_disruptions).
  std::size_t disruptions = 0;
  /// Disruptions still unhealed when their runs ended.
  std::size_t unrecovered_disruptions = 0;
  /// Why the batched/sharded fast paths were refused and the scalar
  /// simulator ran instead (empty = no forced fallback).  E.g. an adaptive
  /// fault scenario or recovery tracking.
  std::string scalar_fallback_reason;

  // --- Crash-safe sweep accounting (see TrialConfig's sweep controls).
  // `trials` above counts *completed* trials — the ones contributing to
  // the metric aggregates; the fields below reconcile it against what was
  // asked for and what went wrong. ---

  /// TrialConfig::trials of the request (== trials unless the sweep was
  /// truncated or trials were quarantined).
  std::size_t requested_trials = 0;
  /// Trials attempted by this result (completed + quarantined).
  std::size_t attempted = 0;
  /// Trials that exhausted their retry budget (== failed_trials.size()).
  std::size_t quarantined = 0;
  /// Total retry attempts performed across all trials.
  std::size_t retries = 0;
  /// Per-quarantined-trial report, ascending trial index.
  std::vector<FailedTrial> failed_trials;
  /// The sweep stopped early (budget expiry or stop_request) at a clean
  /// checkpoint boundary: the aggregates cover only the completed chunks.
  /// The confidence intervals below widen honestly with the smaller n.
  bool truncated = false;
  /// Trials restored from a resumed journal rather than re-run.
  std::size_t resumed_trials = 0;
  /// Why a resume journal was rejected and the sweep restarted from
  /// scratch (empty = no journal was rejected).
  std::string resume_discarded_reason;

  struct RecoveryQuantiles {
    double p50 = 0, p95 = 0, p99 = 0;
  };
  /// p50/p95/p99 of recovery_rounds (zeros when there are no samples).
  [[nodiscard]] RecoveryQuantiles recovery_quantiles() const;

  struct Interval {
    double lo = 0, hi = 0;
  };
  /// 95% normal-approximation confidence interval for a metric's mean
  /// (mean ± 1.96 · stderr).  Collapses to [mean, mean] below two samples.
  /// Truncated/quarantined sweeps report honestly through this: fewer
  /// completed trials => larger stderr => wider interval.
  [[nodiscard]] static Interval ci95(const support::RunningStats& s);

  void merge(const TrialStats& other);
};

/// The chunk geometry a sweep will actually use: `checkpoint_interval`
/// rounded up to a multiple of the batched simulator's lane width (see
/// TrialConfig::checkpoint_interval), and the resulting number of
/// checkpoint chunks for `trials`.  Exposed so external observers (the
/// beepmisd progress stream) can turn on_checkpoint's chunk counts into
/// an honest "done / total" without re-deriving the rounding rule.
[[nodiscard]] std::size_t effective_checkpoint_interval(std::size_t checkpoint_interval);
[[nodiscard]] std::size_t checkpoint_chunk_count(std::size_t trials,
                                                 std::size_t checkpoint_interval);

/// The engine a beeping sweep runs on.  The scalar and sharded paths run
/// a per-trial loop; the batched paths run a per-batch loop of 64-lane
/// batches.
enum class ExecutionPath : std::uint8_t {
  kScalar,          ///< BeepSimulator per trial
  kSharded,         ///< ShardedSimulator per trial (scalar draw order)
  kBatched,         ///< BatchSimulator per batch
  kShardedBatched,  ///< one ShardedBatchSimulator per batch (statistical lanes)
};

/// What one probe instance of the protocol factory declares.
struct ProtocolProbe {
  bool shard_support = false;  ///< BeepProtocol::shard_support().supported
  bool batch_kernel = false;   ///< make_batch_protocol(config.rng_mode) != nullptr
};

/// A fault scenario that runs live through the scalar event driver: any
/// scenario except a kStaticSchedule one that run_beep_trials folded into
/// SimConfig::crash_round.
struct LiveScenario {
  sim::ScenarioKind kind = sim::ScenarioKind::kAdaptive;
  std::string name;
};

/// plan_execution's answer: which engine runs the sweep, how wide, with
/// which draw order, and why the fast paths were refused.
struct ExecutionPlan {
  ExecutionPath path = ExecutionPath::kScalar;
  /// Shard count of the sharded paths; 1 otherwise.
  unsigned shards = 1;
  /// Worker threads of the outer trial or batch loop: 1 on the sharded
  /// paths, whose every run already uses `shards` threads.
  unsigned workers = 1;
  /// The draw order the sweep's numbers come from: kStatisticalLanes only
  /// on a batched path of a kStatisticalLanes config, kScalarOrder on every
  /// other route.
  sim::BatchRngMode rng_mode = sim::BatchRngMode::kScalarOrder;
  /// Why the fast paths were refused (TrialStats::scalar_fallback_reason);
  /// empty unless a live scenario or recovery tracking forced the scalar
  /// simulator.
  std::string reason;
};

/// The routing decision of run_beep_trials, as a pure function of the
/// config, the node count of trial 0's graph (0 when it is not built up
/// front: per-trial graphs with more than one trial), one protocol probe
/// and the live scenario (nullptr when none runs).  Its rules are the
/// routing table in src/sim/README.md; tests/test_runner.cpp's plan table
/// pins each of them.
[[nodiscard]] ExecutionPlan plan_execution(const TrialConfig& config, std::size_t shared_nodes,
                                           const ProtocolProbe& protocol,
                                           const LiveScenario* scenario);

/// Runs `config.trials` beeping-model trials on the route plan_execution
/// picks.
[[nodiscard]] TrialStats run_beep_trials(const GraphFactory& graphs,
                                         const BeepProtocolFactory& protocols,
                                         const TrialConfig& config);

/// Runs LOCAL-model trials (Luby baseline).
[[nodiscard]] TrialStats run_local_trials(const GraphFactory& graphs,
                                          const LocalProtocolFactory& protocols,
                                          const TrialConfig& config);

}  // namespace beepmis::harness
