// End-to-end benchmark: spec text in, verified TrialStats out.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--rev <text>] [--out <dir>]
//
// Each invocation runs one workload in this process (so its peak RSS is
// the workload's own), as a closed loop of requests through the library's
// public entry points: cli::parse_sweep_spec + cli::run_sweep, or a
// svc::SweepService driven by svc::SweepClient connections.  Every result
// is checked; a failed check makes the exit code 1.  The last stdout line
// is one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1).  A traced run times the untraced loop,
// then the same loop with spans around every public call, then direct
// calls into each layer (graph, sim, mis, exp, svc) on the request's own
// graph, protocol and seeds; the spans go to <out>/spans-<workload>-<seed>.json.
// See README.md for the workloads and the metric table.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchlib.hpp"
#include "cli/registry.hpp"
#include "cli/sweep_spec.hpp"
#include "exp/runner.hpp"
#include "exp/stats_io.hpp"
#include "graph/csr_file.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "mis/local_feedback.hpp"
#include "mis/self_healing.hpp"
#include "mis/verifier.hpp"
#include "sim/batch.hpp"
#include "sim/beep.hpp"
#include "sim/sharded.hpp"
#include "support/rng.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace {

using namespace beepmis;
using e2ebench::Ledger;
using e2ebench::now_ns;
using e2ebench::Scope;
using e2ebench::Tracer;

namespace fs = std::filesystem;

constexpr unsigned kThreads = 4;    // compute-thread cap of every workload
constexpr unsigned kProbeShards = 4;

double seconds_since(std::int64_t start) { return static_cast<double>(now_ns() - start) * 1e-9; }

// --- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  std::string out = ".bench_out";
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--rev") {
      o.rev = value;
    } else if (key == "--out") {
      o.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 120)) {
    throw std::invalid_argument("--seconds outside (0, 120]");
  }
  return o;
}

// --- Results and checks -----------------------------------------------------

/// The result of one request, as its caller sees it.
struct Reply {
  bool ok = false;             ///< a TrialStats came back
  harness::TrialStats stats;
  std::string digest;          ///< framed TrialStats: equal iff bit-identical
  std::string failure;         ///< why it counts as failed ("" = it does not)
  double latency_s = 0;        ///< spec text -> verified TrialStats
  double ack_s = 0;            ///< service only: submit -> ack
  bool cached = false;         ///< service only: answered from the cache
  std::string status;          ///< service only: complete | degraded | ...
};

/// The correctness gate shared by every path: a TrialStats fails when it
/// is quarantined or truncated, lost trials, or (fault-free requests) has
/// a trial that did not end in a valid MIS.  Degraded churn runs are the
/// algorithm under faults, not a failure.
std::string check_stats(const harness::TrialStats& s, const cli::SweepSpec& spec) {
  if (s.quarantined != 0) return "quarantined " + std::to_string(s.quarantined) + " trials";
  if (s.truncated) return "truncated";
  if (s.trials != spec.trials) {
    return "completed " + std::to_string(s.trials) + " of " + std::to_string(spec.trials);
  }
  const bool fault_free = spec.algorithm.scenario.name == "none";
  if (fault_free && s.valid != s.trials) {
    return "valid " + std::to_string(s.valid) + " != trials " + std::to_string(s.trials);
  }
  return "";
}

/// A direct request: spec text -> parse -> fingerprint -> run_sweep -> check.
Reply direct_request(const std::string& line, Tracer& tracer, long request) {
  Reply r;
  const std::int64_t t0 = now_ns();
  Scope root(tracer, "request", -1, request);
  try {
    cli::SweepSpec spec;
    {
      Scope s(tracer, "cli.parse_sweep_spec", root.id(), request);
      spec = cli::parse_sweep_spec(line);
    }
    {
      Scope s(tracer, "cli.sweep_fingerprint", root.id(), request);
      (void)cli::sweep_fingerprint(spec);
    }
    {
      Scope s(tracer, "cli.run_sweep", root.id(), request);
      r.stats = cli::run_sweep(spec);
    }
    Scope s(tracer, "bench.check", root.id(), request);
    r.ok = true;
    r.failure = check_stats(r.stats, spec);
    r.digest = harness::format_trial_stats(r.stats);
  } catch (const std::exception& e) {
    r.failure = std::string("threw: ") + e.what();
  }
  r.latency_s = seconds_since(t0);
  return r;
}

// --- In-process service ------------------------------------------------------

/// One in-process SweepService on a private state directory.
class LocalService {
 public:
  explicit LocalService(const std::string& dir) : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    svc::ServiceConfig config;
    config.socket_path = dir_ + "/s.sock";
    config.state_dir = dir_ + "/state";
    config.job_workers = 1;
    service_ = std::make_unique<svc::SweepService>(config);
    service_->start();
  }
  ~LocalService() {
    service_->stop();
    service_->join();
    service_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  LocalService(const LocalService&) = delete;
  LocalService& operator=(const LocalService&) = delete;

  [[nodiscard]] svc::SweepClient connect() const {
    return svc::SweepClient::connect(dir_ + "/s.sock");
  }
  [[nodiscard]] svc::ServiceCounters counters() const { return service_->counters(); }
  [[nodiscard]] double state_mb() const {
    std::uintmax_t bytes = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir_ + "/state")) {
      if (e.is_regular_file()) bytes += e.file_size();
    }
    return static_cast<double>(bytes) / (1 << 20);
  }

 private:
  std::string dir_;
  std::unique_ptr<svc::SweepService> service_;
};

/// A served request: spec text -> parse -> fingerprint -> submit -> ack ->
/// result -> check.
Reply served_request(svc::SweepClient& client, const std::string& client_id,
                     const std::string& line, Tracer& tracer, long request) {
  Reply r;
  const std::int64_t t0 = now_ns();
  Scope root(tracer, "request", -1, request);
  try {
    cli::SweepSpec spec;
    {
      Scope s(tracer, "cli.parse_sweep_spec", root.id(), request);
      spec = cli::parse_sweep_spec(line);
    }
    {
      Scope s(tracer, "cli.sweep_fingerprint", root.id(), request);
      (void)cli::sweep_fingerprint(spec);
    }
    svc::SweepClient::Event ev;
    {
      Scope s(tracer, "svc.submit", root.id(), request);
      ev = client.submit(line, 0, client_id);
    }
    r.ack_s = seconds_since(t0);
    {
      Scope s(tracer, "svc.await_result", root.id(), request);
      while (ev.kind == svc::SweepClient::Event::Kind::kAck ||
             ev.kind == svc::SweepClient::Event::Kind::kProgress) {
        ev = client.next_event();
      }
    }
    Scope s(tracer, "bench.check", root.id(), request);
    if (ev.kind == svc::SweepClient::Event::Kind::kError) {
      r.failure = "error event: " + ev.message;
    } else if (!ev.has_stats) {
      r.failure = "result " + ev.status + " without stats: " + ev.message;
    } else {
      r.ok = true;
      r.cached = ev.cached;
      r.status = ev.status;
      r.stats = ev.stats;
      r.digest = harness::format_trial_stats(r.stats);
      r.failure = check_stats(r.stats, spec);
      if (r.failure.empty() && ev.status == "quarantined") r.failure = "status quarantined";
    }
  } catch (const std::exception& e) {
    r.failure = std::string("threw: ") + e.what();
  }
  r.latency_s = seconds_since(t0);
  return r;
}

// --- Timed phase ---------------------------------------------------------------

struct Sample {
  double latency_s = 0;
  double ack_s = 0;
  bool cached = false;
  bool fresh_lf = false;  ///< a fresh local-feedback request (service-mix)
  std::size_t trials = 0;
  bool fallback = false;  ///< result named a scalar_fallback_reason
};

struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0;
  std::mutex m;  // client threads append concurrently

  void add(const Sample& s) {
    const std::lock_guard<std::mutex> lock(m);
    samples.push_back(s);
  }
  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Sample& s : samples) v.push_back(s.latency_s);
    return v;
  }
  [[nodiscard]] std::size_t trials() const {
    std::size_t t = 0;
    for (const Sample& s : samples) t += s.trials;
    return t;
  }
};

// --- Per-layer metrics --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};

using Metrics = std::vector<Metric>;

double median_span(const std::vector<e2ebench::Span>& spans, const std::string& name) {
  std::vector<double> v;
  for (const auto& s : spans) {
    if (s.name == name) v.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return e2ebench::median(v);
}

std::size_t count_spans(const std::vector<e2ebench::Span>& spans, const std::string& name) {
  std::size_t n = 0;
  for (const auto& s : spans) n += s.name == name;
  return n;
}

std::unique_ptr<sim::BeepProtocol> make_protocol(const cli::AlgorithmSpec& a) {
  if (a.name == "local-feedback") {
    mis::LocalFeedbackConfig c;
    c.factor_low = c.factor_high = a.factor;
    c.initial_p_low = c.initial_p_high = a.initial_p;
    return std::make_unique<mis::LocalFeedbackMis>(c);
  }
  if (a.name == "self-healing") {
    mis::SelfHealingConfig c;
    c.base.factor_low = c.base.factor_high = a.factor;
    c.base.initial_p_low = c.base.initial_p_high = a.initial_p;
    return std::make_unique<mis::SelfHealingLocalFeedbackMis>(c);
  }
  throw std::invalid_argument("e2ebench probes cover local-feedback and self-healing, not " +
                              a.name);
}

sim::SimConfig sim_config_of(const cli::AlgorithmSpec& a) {
  sim::SimConfig c = a.sim;
  if (a.name == "self-healing") c.mis_keepalive = true;  // as run_sweep does
  return c;
}

support::Xoshiro256StarStar trial_rng(std::uint64_t base_seed, std::size_t trial) {
  return support::SeedSequence(base_seed).child(trial).child(1).generator();
}

bool same_run(const sim::RunResult& a, const sim::RunResult& b) {
  return a.terminated == b.terminated && a.rounds == b.rounds && a.status == b.status &&
         a.beep_counts == b.beep_counts && a.total_beeps == b.total_beeps;
}

/// Direct calls into graph, sim, mis and exp for one representative
/// request, on the request's own graph, protocol and seeds.  Checks it can
/// make (lane 0 == scalar == sharded == scalar on the mapped graph,
/// run_beep_trials == run_sweep, stats round trip) fail `request_id` in the
/// ledger.
struct ProbeInput {
  cli::SweepSpec spec;          ///< the representative request
  std::string request_digest;   ///< its served/direct result
  harness::TrialStats request_stats;
  std::size_t request_id = 0;
  double request_s = 0;         ///< median direct run_sweep time of this request class
  std::string tmp_dir;
};

void probe_layers(const ProbeInput& in, Tracer& tracer, Ledger& ledger, Metrics& out) {
  const long req = -2;  // probe spans are not part of a timed request
  const auto fail = [&](const std::string& why) { ledger.fail(in.request_id, why); };

  // graph
  graph::Graph g;
  {
    Scope s(tracer, "graph.make_graph", -1, req);
    g = cli::make_graph(in.spec.graph);
  }
  const std::string file = in.tmp_dir + "/probe.bmcsr";
  {
    Scope s(tracer, "graph.write_csr_file_streaming", -1, req);
    const cli::GraphStream gs = cli::make_graph_stream(in.spec.graph);
    (void)graph::write_csr_file_streaming(gs.node_count, gs.stream, file);
  }
  graph::Graph g_map;
  {
    Scope s(tracer, "graph.load_graph_file", -1, req);
    g_map = graph::load_graph_file(file);
  }
  std::size_t cut = 0, boundary = 0;
  {
    Scope s(tracer, "graph.Partition.build", -1, req);
    const graph::Partition p = graph::Partition::build(g, kProbeShards);
    cut = p.cut_edges();
    for (graph::NodeId v = 0; v < g.node_count(); ++v) boundary += p.is_boundary(v);
  }
  const double n = g.node_count();
  const double csr_bytes = (n + 1) * 4.0 + static_cast<double>(g.adjacency_size()) * 4.0;

  // sim + mis on trial 0 (and lanes 0..63) of the request's seeds
  const cli::AlgorithmSpec& a = in.spec.algorithm;
  const sim::SimConfig sc = sim_config_of(a);
  const auto protocol = make_protocol(a);
  const auto batch_protocol = protocol->make_batch_protocol();
  if (batch_protocol == nullptr) throw std::logic_error("probe protocol has no batch kernel");
  const std::size_t lanes = sim::kMaxBatchLanes;
  std::vector<sim::RunResult> batch;
  {
    Scope s(tracer, "sim.BatchSimulator.run", -1, req);
    std::vector<support::Xoshiro256StarStar> rngs;
    for (std::size_t l = 0; l < lanes; ++l) rngs.push_back(trial_rng(in.spec.base_seed, l));
    sim::BatchSimulator simulator(sc);
    batch = simulator.run(g, *batch_protocol, std::move(rngs));
  }
  sim::RunResult sharded, scalar;
  {
    Scope s(tracer, "sim.ShardedSimulator.run", -1, req);
    sim::ShardedSimulator simulator(g, kProbeShards, sc);
    sharded = simulator.run(*protocol, trial_rng(in.spec.base_seed, 0));
  }
  {
    Scope s(tracer, "sim.BeepSimulator.run", -1, req);
    sim::BeepSimulator simulator(g, sc);
    scalar = simulator.run(*protocol, trial_rng(in.spec.base_seed, 0));
  }
  mis::VerificationReport report;
  {
    Scope s(tracer, "mis.verify_mis_run", -1, req);
    report = mis::verify_mis_run(g, scalar);
  }
  if (!report.valid()) fail("probe: scalar trial 0 is not a valid MIS");
  if (!same_run(scalar, sharded)) fail("probe: sharded trial 0 differs from scalar");
  if (!same_run(scalar, batch[0])) fail("probe: batch lane 0 differs from scalar");
  {
    sim::BeepSimulator simulator(g_map, sc);  // untimed: the mmap tier's check
    if (!same_run(scalar, simulator.run(*protocol, trial_rng(in.spec.base_seed, 0)))) {
      fail("probe: trial 0 on the mapped graph differs from the in-RAM graph's");
    }
  }
  double rounds_sum = 0, rounds_max = 0;
  for (const auto& r : batch) {
    rounds_sum += static_cast<double>(r.rounds);
    rounds_max = std::max(rounds_max, static_cast<double>(r.rounds));
  }

  // exp: run_beep_trials with run_sweep's config on the prebuilt graph
  auto shared = std::make_shared<const graph::Graph>(g);
  harness::TrialConfig config;
  config.trials = in.spec.trials;
  config.base_seed = in.spec.base_seed;
  config.threads = in.spec.threads;
  config.shared_graph = true;
  config.shards = a.shards;
  config.sim = sc;
  config.checkpoint_interval = in.spec.checkpoint_interval;
  config.request_fingerprint = cli::sweep_fingerprint(in.spec);
  harness::TrialStats direct;
  {
    Scope s(tracer, "exp.run_beep_trials", -1, req);
    direct = harness::run_beep_trials(
        [shared](support::Xoshiro256StarStar&) { return *shared; },
        [a]() { return make_protocol(a); }, config);
  }
  if (harness::format_trial_stats(direct) != in.request_digest) {
    fail("probe: run_beep_trials differs from the request's result");
  }

  // The request's simulation alone, at the request's parallelism: its
  // 64-lane batches over min(threads, batches) threads.  What run_sweep
  // spends beyond this and the graph build is the harness's unattributed
  // share.
  double direct_sim_s = 0;
  {
    const std::int64_t t0 = now_ns();
    Scope all(tracer, "sim.request_batches", -1, req);
    const std::size_t batches = (in.spec.trials + lanes - 1) / lanes;
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    const unsigned threads = std::min<unsigned>(in.spec.threads == 0 ? kThreads : in.spec.threads,
                                                static_cast<unsigned>(batches));
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&] {
        sim::BatchSimulator simulator(sc);
        const auto kernel = protocol->make_batch_protocol();
        for (std::size_t b; (b = next.fetch_add(1)) < batches;) {
          Scope s(tracer, "sim.BatchSimulator.run.batch", all.id(), req);
          std::vector<support::Xoshiro256StarStar> rngs;
          const std::size_t last = std::min(in.spec.trials, (b + 1) * lanes);
          for (std::size_t t = b * lanes; t < last; ++t) {
            rngs.push_back(trial_rng(in.spec.base_seed, t));
          }
          (void)simulator.run(*shared, *kernel, std::move(rngs));
        }
      });
    }
    for (auto& t : workers) t.join();
    direct_sim_s = seconds_since(t0);
  }
  const double graph_s = median_span(tracer.spans(), "graph.make_graph");

  // exp: the framed stats round trip (wire format and cache entry)
  {
    Scope s(tracer, "exp.stats_io", -1, req);
    const std::string text = harness::format_trial_stats(in.request_stats);
    harness::TrialStats back;
    std::string error;
    if (!harness::parse_trial_stats(text, back, error) ||
        harness::format_trial_stats(back) != text) {
      fail("probe: stats round trip: " + error);
    }
  }

  const auto spans = tracer.spans();
  const double batch_s = median_span(spans, "sim.BatchSimulator.run");
  const double sharded_s = median_span(spans, "sim.ShardedSimulator.run");
  const double scalar_s = median_span(spans, "sim.BeepSimulator.run");
  out.push_back({"graph.build_s", median_span(spans, "graph.make_graph"), "s"});
  out.push_back(
      {"graph.stream_write_s", median_span(spans, "graph.write_csr_file_streaming"), "s"});
  out.push_back({"graph.map_s", median_span(spans, "graph.load_graph_file"), "s"});
  out.push_back({"graph.csr_mb", csr_bytes / (1 << 20), "MB"});
  out.push_back({"graph.cut_edge_fraction",
                 static_cast<double>(cut) / std::max<double>(1, g.edge_count()), "fraction"});
  out.push_back({"graph.boundary_node_fraction", static_cast<double>(boundary) / n, "fraction"});
  out.push_back({"sim.batch64_s", batch_s, "s"});
  out.push_back({"sim.batch_ns_per_node_round", batch_s * 1e9 / (n * rounds_max), "ns"});
  out.push_back({"sim.sharded_s", sharded_s, "s"});
  out.push_back({"sim.sharded_ns_per_node_round",
                 sharded_s * 1e9 / (n * static_cast<double>(sharded.rounds)), "ns"});
  out.push_back({"sim.scalar_s", scalar_s, "s"});
  out.push_back({"sim.shard_speedup", scalar_s / sharded_s, "x"});
  out.push_back({"sim.rounds_mean", rounds_sum / static_cast<double>(batch.size()), "rounds",
                 batch.size()});
  out.push_back({"mis.verify_s", median_span(spans, "mis.verify_mis_run"), "s"});
  out.push_back({"exp.run_trials_s", median_span(spans, "exp.run_beep_trials"), "s"});
  out.push_back({"exp.unattributed_fraction",
                 (in.request_s - graph_s - direct_sim_s) / in.request_s, "fraction"});
  out.push_back({"exp.stats_io_us", median_span(spans, "exp.stats_io") * 1e6, "us"});
}

/// One churn + recovery-tracking trial on the scalar core: the only path
/// that runs the scenario layer.
void probe_scenario(const std::string& line, Tracer& tracer, Metrics& out) {
  const cli::SweepSpec spec = cli::parse_sweep_spec(line);
  const graph::Graph g = cli::make_graph(spec.graph);
  sim::SimConfig sc = sim_config_of(spec.algorithm);
  sc.scenario = cli::make_scenario(spec.algorithm.scenario);
  const auto protocol = make_protocol(spec.algorithm);
  {
    Scope s(tracer, "sim.scenario", -1, -2);
    sim::BeepSimulator simulator(g, sc);
    (void)simulator.run(*protocol, trial_rng(spec.base_seed, 0));
  }
  out.push_back({"sim.scenario_s", median_span(tracer.spans(), "sim.scenario"), "s"});
}

double fallbacks(const Phase& p) {
  double n = 0;
  for (const Sample& s : p.samples) n += s.fallback;
  return n;
}

/// The svc rows; `overhead_ms` is fresh served latency minus the direct
/// run_sweep time of the same specs.
void emit_service_metrics(Metrics& out, const std::vector<double>& ack,
                          const std::vector<double>& fresh, const std::vector<double>& cached,
                          double overhead_ms, std::size_t cache_hits, std::size_t submitted,
                          double state_mb) {
  out.push_back({"svc.ack_p50_ms", e2ebench::median(ack) * 1e3, "ms", ack.size()});
  out.push_back({"svc.fresh_p50_ms", e2ebench::median(fresh) * 1e3, "ms", fresh.size()});
  out.push_back({"svc.cached_p50_ms", e2ebench::median(cached) * 1e3, "ms", cached.size()});
  out.push_back({"svc.overhead_ms", overhead_ms, "ms", fresh.size()});
  out.push_back({"svc.cache_hit_fraction",
                 static_cast<double>(cache_hits) / static_cast<double>(submitted), "fraction",
                 submitted});
  out.push_back({"svc.state_mb_written", state_mb, "MB"});
}

// --- Workloads ---------------------------------------------------------------

std::string gnp_line(std::uint64_t n, const char* p, std::uint64_t graph_seed,
                     const std::string& tail) {
  return "sweepspec v3 graph=gnp graph.n=" + std::to_string(n) + " graph.p=" + p +
         " graph.seed=" + std::to_string(graph_seed) + (tail.empty() ? "" : " " + tail);
}

/// service-mix's churn request: self-healing under churn with recovery
/// tracking, G(2k, mean degree 8).  Also the scenario probe of every
/// workload.
std::string churn_line(std::uint64_t graph_seed, std::uint64_t base_seed) {
  return gnp_line(2000, "0.004", graph_seed,
                  "algorithm=self-healing scenario=churn scenario.rate=0.5 scenario.seed=" +
                      std::to_string(base_seed % 1000003) +
                      " sim.track_recovery=1 sim.run_until=200 trials=64 base_seed=" +
                      std::to_string(base_seed) + " threads=4 shards=1");
}

class Workload {
 public:
  Workload(const Options& o, Ledger& ledger)
      : opt_(o), ledger_(ledger), tmp_(o.out + "/tmp-" + std::to_string(::getpid())) {
    fs::create_directories(tmp_);
  }
  virtual ~Workload() {
    std::error_code ec;
    fs::remove_all(tmp_, ec);
  }
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// setup_s is the median of this many set-ups.
  [[nodiscard]] virtual int setup_reps() const = 0;
  /// One timed set-up (called setup_reps() times; the last one stays up).
  virtual void setup() = 0;
  /// Untimed: undoes setup() before the next one.
  virtual void teardown() {}
  /// Closed loop for `seconds`: every request is checked and sampled.
  virtual void run_phase(double seconds, Tracer& tracer, Phase& phase) = 0;
  /// Untimed checks on the requests of all phases.
  virtual void verify_requests() {}
  /// Traced run only: direct layer calls and the per-layer metrics.
  virtual void probe(Tracer& tracer, const Phase& traced, Metrics& out) = 0;
  /// Figures the probes print but do not report in the JSON.
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

 protected:
  /// Records a finished request's failure, if it has one.
  void account(std::size_t id, const Reply& r) {
    if (!r.failure.empty()) ledger_.fail(id, r.failure);
  }

  /// Seed-derived 64-bit value for component `k` of stream `stream`.
  [[nodiscard]] std::uint64_t derive(std::uint64_t stream, std::uint64_t k) const {
    return support::SeedSequence(opt_.seed).child(stream).child(k).value() >> 16;
  }

  const Options& opt_;
  Ledger& ledger_;
  std::string tmp_;
  std::vector<std::string> notes_;
};

/// Many-trial sweeps on one G(100k) graph, the paper's experiment shape:
/// one caller, cli::run_sweep in-process.
class SweepGnp100k : public Workload {
 public:
  using Workload::Workload;

  /// ~1 s each: a graph build and one 256-trial warm-up sweep.
  int setup_reps() const override { return 5; }

  /// The request with per-request seed `base_seed`.
  [[nodiscard]] std::string request_line(std::uint64_t base_seed) const {
    return gnp_line(100000, "8e-05", graph_seed_,
                    "algorithm=local-feedback trials=256 base_seed=" + std::to_string(base_seed) +
                        " threads=4 shards=1");
  }

  void setup() override {
    Tracer off;
    const std::size_t id = ledger_.add();
    const Reply r = direct_request(request_line(derive(1, 0)), off, -1);
    account(id, r);
    if (!warmup_digest_.empty() && r.digest != warmup_digest_) {
      ledger_.fail(id, "repeated warm-up request: digest differs");
    }
    warmup_digest_ = r.digest;
  }

  void run_phase(double seconds, Tracer& tracer, Phase& phase) override {
    const std::int64_t t0 = now_ns();
    while (seconds_since(t0) < seconds) {
      const std::size_t id = ledger_.add();
      const std::string text = request_line(derive(2, next_++));
      const Reply r = direct_request(text, tracer, static_cast<long>(id));
      account(id, r);
      phase.add({r.latency_s, 0, false, true, r.ok ? r.stats.trials : 0,
                 r.ok && !r.stats.scalar_fallback_reason.empty()});
      if (tracer.enabled() && traced_.size() < kServedProbes) traced_.push_back({text, r, id});
    }
    phase.wall_s = seconds_since(t0);
  }

  /// Layer probes on the first traced request, the scenario probe, and a
  /// short-lived service that serves the first traced requests fresh,
  /// then again from the cache: the traced JSON carries every per-layer
  /// metric, svc's included, on every workload.
  void probe(Tracer& tracer, const Phase& traced, Metrics& out) override {
    const Traced& first = traced_.at(0);
    ProbeInput in;
    in.spec = cli::parse_sweep_spec(first.line);
    in.request_digest = first.reply.digest;
    in.request_stats = first.reply.stats;
    in.request_id = first.id;
    in.request_s = median_span(tracer.spans(), "cli.run_sweep");
    in.tmp_dir = tmp_;
    probe_layers(in, tracer, ledger_, out);
    probe_scenario(churn_line(graph_seed_, derive(3, 0)), tracer, out);

    LocalService service(tmp_ + "/svc");
    svc::SweepClient client = service.connect();
    std::vector<double> ack, fresh, cached, direct;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Traced& t : traced_) {
        const Reply r = served_request(client, "probe", t.line, tracer, static_cast<long>(t.id));
        account(t.id, r);
        if (r.ok && r.digest != t.reply.digest) {
          ledger_.fail(t.id, "served result differs from direct");
        }
        if (r.ok && r.cached != (pass == 1)) ledger_.fail(t.id, "unexpected cache state");
        ack.push_back(r.ack_s);
        (pass == 0 ? fresh : cached).push_back(r.latency_s);
      }
    }
    for (const Traced& t : traced_) direct.push_back(t.reply.latency_s);
    const svc::ServiceCounters c = service.counters();
    const double overhead_ms = (e2ebench::median(fresh) - e2ebench::median(direct)) * 1e3;
    emit_service_metrics(out, ack, fresh, cached, overhead_ms, c.cache_hits, c.submitted,
                         service.state_mb());
    out.push_back({"exp.fallback_requests", fallbacks(traced), "count", traced.samples.size()});
  }

 private:
  /// Traced requests the service probe replays.
  static constexpr std::size_t kServedProbes = 3;
  struct Traced {
    std::string line;
    Reply reply;
    std::size_t id;
  };

  std::uint64_t graph_seed_ = derive(0, 0);
  std::string warmup_digest_;
  std::uint64_t next_ = 0;
  std::vector<Traced> traced_;
};

/// Two SweepClient connections to one in-process SweepService: fresh
/// local-feedback sweeps, fresh churn sweeps, and repeats of each client's
/// own completed requests (cache hits).
class ServiceMix : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kClients = 2;
  /// Every sixth fresh request is re-run directly after the loop.
  static constexpr std::size_t kVerifyEvery = 6;

  /// Requests per phase below which the phase keeps going past `seconds`.
  static constexpr std::size_t kMinRequests = 100;

  std::string lf_line(std::uint64_t base_seed) const {
    return gnp_line(10000, "0.0008", graph_seed_, "algorithm=local-feedback trials=128 base_seed=" +
                                                     std::to_string(base_seed) +
                                                     " threads=4 shards=1");
  }

  /// ~0.1 s each: a service start, the connects and one warm-up sweep.
  int setup_reps() const override { return 25; }

  void teardown() override {
    clients_.clear();
    service_.reset();
  }

  /// Each set-up starts on an empty state directory, so every warm-up
  /// request is computed afresh and the repeats must agree bit for bit.
  void setup() override {
    service_ = std::make_unique<LocalService>(tmp_ + "/svc");
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<svc::SweepClient>(service_->connect()));
    }
    Tracer off;
    const std::size_t id = ledger_.add();
    const Reply r = served_request(*clients_[0], "c0", lf_line(derive(1, 0)), off, -1);
    account(id, r);
    if (r.ok && r.cached) ledger_.fail(id, "warm-up on an empty state directory was cached");
    if (!warmup_digest_.empty() && r.digest != warmup_digest_) {
      ledger_.fail(id, "repeated warm-up request: digest differs");
    }
    warmup_digest_ = r.digest;
  }

  void run_phase(double seconds, Tracer& tracer, Phase& phase) override {
    const svc::ServiceCounters before = service_->counters();
    const std::int64_t t0 = now_ns();
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          client_loop(c, seconds, t0, tracer, phase, done);
        } catch (const std::exception& e) {
          ledger_.fail(ledger_.add(), std::string("client loop threw: ") + e.what());
        }
      });
    }
    for (auto& t : threads) t.join();
    phase.wall_s = seconds_since(t0);
    const svc::ServiceCounters after = service_->counters();
    if (tracer.enabled()) {
      phase_hits_ = after.cache_hits - before.cache_hits;
      phase_submitted_ = after.submitted - before.submitted;
    }
  }

  /// Sampled fresh requests must equal a direct run_sweep of the same spec.
  void verify_requests() override {
    for (Record& r : verify_) {
      const std::int64_t t0 = now_ns();
      std::string digest;
      try {
        digest = harness::format_trial_stats(cli::run_sweep(cli::parse_sweep_spec(r.line)));
      } catch (const std::exception& e) {
        ledger_.fail(r.id, std::string("direct re-run threw: ") + e.what());
      }
      if (r.lf) direct_lf_s_.push_back(seconds_since(t0));
      if (digest != r.digest) ledger_.fail(r.id, "served result differs from direct run_sweep");
    }
  }

  void probe(Tracer& tracer, const Phase& traced, Metrics& out) override {
    verify_requests();  // times the direct runs svc.overhead_ms compares against
    verify_.clear();
    const Record& rep = traced_lf_.at(0);
    ProbeInput in;
    in.spec = cli::parse_sweep_spec(rep.line);
    in.request_digest = rep.digest;
    in.request_stats = rep.stats;
    in.request_id = rep.id;
    in.request_s = e2ebench::median(direct_lf_s_);
    in.tmp_dir = tmp_;
    probe_layers(in, tracer, ledger_, out);
    probe_scenario(churn_line(graph_seed_, derive(3, 0)), tracer, out);

    std::vector<double> ack, fresh, fresh_lf, cached;
    for (const Sample& s : traced.samples) {
      ack.push_back(s.ack_s);
      (s.cached ? cached : fresh).push_back(s.latency_s);
      if (s.fresh_lf) fresh_lf.push_back(s.latency_s);
    }
    // Compared like with like: fresh local-feedback requests against direct
    // runs of sampled local-feedback specs.
    const double overhead_ms =
        (e2ebench::median(fresh_lf) - e2ebench::median(direct_lf_s_)) * 1e3;
    emit_service_metrics(out, ack, fresh, cached, overhead_ms, phase_hits_, phase_submitted_,
                         service_->state_mb());
    out.push_back({"exp.fallback_requests", fallbacks(traced), "count", traced.samples.size()});
    const auto p90 = e2ebench::tail_percentile(fresh, 0.9);
    notes_.push_back(p90 ? "svc.fresh_p90_ms " + std::to_string(*p90 * 1e3) + " ms samples=" +
                       std::to_string(fresh.size())
                 : "svc.fresh_p90_ms refused: " + std::to_string(fresh.size()) +
                       " fresh samples, needs 100");
  }

 private:
  struct Record {
    std::string line;
    std::string digest;
    harness::TrialStats stats;
    std::size_t id = 0;
    bool lf = false;
  };

  void client_loop(int c, double seconds, std::int64_t t0, Tracer& tracer, Phase& phase,
                   std::atomic<std::size_t>& done) {
    svc::SweepClient& client = *clients_[static_cast<std::size_t>(c)];
    const std::string cid = "c" + std::to_string(c);
    support::Xoshiro256StarStar rng =
        support::SeedSequence(opt_.seed).child(10 + c).child(draws_[c]++).generator();
    std::vector<int> block;
    while (seconds_since(t0) < seconds || done.load() < kMinRequests) {
      if (block.empty()) {
        block = {0, 0, 1, 2};  // two local-feedback, one churn, one repeat
        for (std::size_t i = block.size() - 1; i > 0; --i) {
          std::swap(block[i], block[rng() % (i + 1)]);
        }
      }
      int kind = block.back();
      block.pop_back();
      auto& mine = completed_[c];
      if (kind == 2 && mine.empty()) kind = 0;
      std::string text;
      const Record* repeat = nullptr;
      if (kind == 2) {
        repeat = &mine[rng() % mine.size()];
        text = repeat->line;
      } else {
        const std::uint64_t base_seed = derive(20 + c, fresh_[c]++);
        text = kind == 0 ? lf_line(base_seed) : churn_line(graph_seed_, base_seed);
      }
      const std::size_t id = ledger_.add();
      const Reply r = served_request(client, cid, text, tracer, static_cast<long>(id));
      account(id, r);
      if (repeat != nullptr) {
        if (r.ok && r.digest != repeat->digest) {
          ledger_.fail(id, "repeated request: digest differs");
        }
        if (r.ok && !r.cached) ledger_.fail(id, "repeat of a completed request missed the cache");
      } else if (r.ok) {
        if (r.cached) ledger_.fail(id, "fresh request answered from the cache");
        Record rec{text, r.digest, r.stats, id, kind == 0};
        if (fresh_[c] % kVerifyEvery == 1) {
          const std::lock_guard<std::mutex> lock(m_);
          verify_.push_back(rec);
          if (tracer.enabled() && kind == 0) traced_lf_.push_back(rec);
        }
        // The service caches complete results only; a degraded churn
        // result is recomputed when repeated, so it is no repeat target.
        if (r.status == "complete") mine.push_back(std::move(rec));
      }
      phase.add({r.latency_s, r.ack_s, r.cached, repeat == nullptr && kind == 0,
                 r.ok ? r.stats.trials : 0, r.ok && !r.stats.scalar_fallback_reason.empty()});
      done.fetch_add(1);
    }
  }

  std::uint64_t graph_seed_ = derive(0, 0);
  std::string warmup_digest_;
  std::unique_ptr<LocalService> service_;
  std::vector<std::unique_ptr<svc::SweepClient>> clients_;
  std::vector<Record> completed_[kClients];
  std::uint64_t fresh_[kClients] = {0, 0};
  std::uint64_t draws_[kClients] = {0, 0};
  std::mutex m_;
  std::vector<Record> verify_;
  std::vector<Record> traced_lf_;
  std::vector<double> direct_lf_s_;
  std::size_t phase_hits_ = 0, phase_submitted_ = 0;
};

// --- Memory -----------------------------------------------------------------

/// Resets the kernel's resident-set high-water mark, so the peak that
/// follows belongs to the timed phase, not to set-up.  False when the
/// kernel refuses (then getrusage's whole-process peak is reported).
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return static_cast<bool>(f);
}

double peak_rss_mb(bool reset_worked) {
  if (reset_worked) {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// --- Output -----------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

std::string stamp(const Options& o) {
  return std::string("{\"rev\": \"") + json_escape(o.rev) +
         "\", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + json_escape(std::string("gcc ") + __VERSION__) +
         "\", \"build_type\": \"" E2EBENCH_BUILD_TYPE "\", \"workload\": \"" + o.workload +
         "\", \"seed\": " + std::to_string(o.seed) + "}";
}

void write_spans(const Options& o, const Metrics& metrics,
                 const std::vector<e2ebench::Span>& spans) {
  const std::string path =
      o.out + "/spans-" + o.workload + "-" + std::to_string(o.seed) + ".json";
  std::ofstream f(path);
  f << "{\"stamp\": " << stamp(o) << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    f << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << num(metrics[i].value)
      << ", \"unit\": \"" << metrics[i].unit << "\", \"samples\": " << metrics[i].samples << "}";
  }
  f << "},\n \"spans\": [\n";
  const auto self = e2ebench::self_times_ns(spans);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    f << "  {\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns - origin << ", \"end_ns\": " << s.end_ns - origin
      << ", \"self_ns\": " << self[i] << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}"
      << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  f << " ]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
  std::cout << "# spans: " << spans.size() << " written to " << path << "\n";
}

/// Self time per span name over the timed requests: where a traced
/// request's wall time goes.
void print_self_times(const std::vector<e2ebench::Span>& spans) {
  const auto self = e2ebench::self_times_ns(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].request >= 0) {
      by_name[spans[i].name].push_back(static_cast<double>(self[i]) * 1e-6);
    }
  }
  for (const auto& [name, v] : by_name) {
    std::cout << "# self " << name << " p50 " << num(e2ebench::median(v))
              << " ms samples=" << v.size() << "\n";
  }
}

std::string json_metrics(const Metrics& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
         num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

Metrics end_to_end(const Phase& phase, const std::vector<double>& setup_s, double rss_mb,
                   std::string& p90_line) {
  const std::vector<double> lat = phase.latencies();
  const std::size_t n = lat.size();
  const auto p90 = e2ebench::tail_percentile(lat, 0.9);
  p90_line = p90 ? "request_p90_s " + num(*p90) + " s samples=" + std::to_string(n)
                 : "request_p90_s refused: " + std::to_string(n) + " samples, needs 100";
  return {
      {"request_p50_s", e2ebench::median(lat), "s", n},
      {"trials_per_s", static_cast<double>(phase.trials()) / phase.wall_s, "1/s", n},
      {"setup_s", e2ebench::median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", rss_mb, "MB", 1},
  };
}

std::unique_ptr<Workload> make_workload(const Options& o, Ledger& ledger) {
  if (o.workload == "sweep-gnp100k") return std::make_unique<SweepGnp100k>(o, ledger);
  if (o.workload == "service-mix") return std::make_unique<ServiceMix>(o, ledger);
  throw std::invalid_argument("unknown workload " + o.workload +
                              " (sweep-gnp100k | service-mix)");
}

int run(const Options& o) {
  fs::create_directories(o.out);
  Ledger ledger;
  const std::unique_ptr<Workload> w = make_workload(o, ledger);
  std::cout << "# stamp " << stamp(o) << "\n";

  std::vector<double> setup_s;
  for (int rep = 0; rep < w->setup_reps(); ++rep) {
    if (rep > 0) w->teardown();
    const std::int64_t t0 = now_ns();
    w->setup();
    setup_s.push_back(seconds_since(t0));
  }

  const bool reset = reset_peak_rss();
  Tracer off;
  Phase untraced;
  w->run_phase(o.trace ? o.seconds / 2 : o.seconds, off, untraced);
  const double rss = peak_rss_mb(reset);

  std::string p90_line;
  const Metrics e2e = end_to_end(untraced, setup_s, rss, p90_line);
  Metrics per_layer;
  if (o.trace) {
    Tracer tracer(true);
    Phase traced;
    w->run_phase(o.seconds / 2, tracer, traced);
    const std::vector<double> lat = traced.latencies();
    print_self_times(tracer.spans());
    per_layer.push_back({"cli.parse_us",
                         (median_span(tracer.spans(), "cli.parse_sweep_spec") +
                          median_span(tracer.spans(), "cli.sweep_fingerprint")) * 1e6,
                         "us", count_spans(tracer.spans(), "cli.parse_sweep_spec")});
    per_layer.push_back({"trace.overhead_fraction",
                         e2ebench::median(lat) / e2e[0].value - 1.0, "fraction", lat.size()});
    w->probe(tracer, traced, per_layer);
    write_spans(o, per_layer, tracer.spans());
    for (const std::string& note : w->notes()) std::cout << "# " << note << "\n";
  } else {
    w->verify_requests();
  }

  // The end-to-end lines, with sample counts, in every mode.
  for (const Metric& m : e2e) {
    std::cout << "# metric " << m.name << " " << num(m.value) << " " << m.unit
              << " samples=" << m.samples << "\n";
  }
  std::cout << "# metric " << p90_line << "\n";
  std::cout << "# metric failed_fraction " << num(ledger.failed_fraction()) << " fraction samples="
            << ledger.attempted() << "\n";
  const auto q = untraced.samples.size() >= 2
                     ? std::optional(e2ebench::quartiles(untraced.latencies()))
                     : std::nullopt;
  if (q) {
    std::cout << "# request latency quartiles " << num(q->q1) << " " << num(q->q2) << " "
              << num(q->q3) << " s iqr " << num(q->iqr()) << "\n";
  }
  for (const Metric& m : per_layer) {
    std::cout << "# layer " << m.name << " " << num(m.value) << " " << m.unit
              << " samples=" << m.samples << "\n";
  }
  for (const std::string& why : ledger.reasons()) std::cout << "# FAILED " << why << "\n";

  const bool correct = ledger.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": " << json_metrics(o.trace ? per_layer : e2e) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
