#include "cli/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cli/sweep_spec.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/greedy_id.hpp"
#include "mis/luby.hpp"
#include "mis/luby_degree.hpp"
#include "mis/metivier.hpp"
#include "mis/pure_beep.hpp"
#include "mis/schedule.hpp"
#include "mis/self_healing.hpp"
#include "sim/sharded.hpp"
#include "support/hash.hpp"

namespace beepmis::cli {

graph::Graph make_graph(const GraphSpec& spec) {
  auto rng = support::Xoshiro256StarStar(spec.seed);
  if (spec.family == "gnp") return graph::gnp(spec.n, spec.p, rng);
  if (spec.family == "complete") return graph::complete(spec.n);
  if (spec.family == "empty") return graph::empty_graph(spec.n);
  if (spec.family == "ring") return graph::ring(spec.n);
  if (spec.family == "path") return graph::path(spec.n);
  if (spec.family == "star") return graph::star(spec.n);
  if (spec.family == "grid") return graph::grid2d(spec.rows, spec.cols);
  if (spec.family == "hex") return graph::hex_grid(spec.rows, spec.cols);
  if (spec.family == "tree") return graph::random_tree(spec.n, rng);
  if (spec.family == "hypercube") {
    const auto d = static_cast<unsigned>(
        std::round(std::log2(std::max<double>(2.0, static_cast<double>(spec.n)))));
    return graph::hypercube(d);
  }
  if (spec.family == "geometric") return graph::random_geometric(spec.n, spec.p, rng).graph;
  if (spec.family == "ba") return graph::barabasi_albert(spec.n, spec.k, rng);
  if (spec.family == "clique-family") return graph::clique_family(spec.k, spec.k);
  if (spec.family == "caterpillar") return graph::caterpillar(spec.rows, spec.cols);
  if (spec.family == "bipartite") {
    return graph::random_bipartite(spec.n / 2, spec.n - spec.n / 2, spec.p, rng);
  }
  if (spec.family == "file") {
    if (spec.path.empty()) {
      throw std::invalid_argument("graph family 'file' needs a path (--graph-file)");
    }
    return graph::load_graph_file(spec.path);
  }
  throw std::invalid_argument("unknown graph family: " + spec.family);
}

std::vector<std::string> graph_families() {
  return {"ba",   "bipartite", "caterpillar", "clique-family", "complete", "empty",
          "file", "geometric", "gnp",         "grid",          "hex",      "hypercube",
          "path", "ring",      "star",        "tree"};
}

GraphStream make_graph_stream(const GraphSpec& spec) {
  const auto hypercube_dim = [](graph::NodeId n) {
    return static_cast<unsigned>(
        std::round(std::log2(std::max<double>(2.0, static_cast<double>(n)))));
  };
  if (spec.family == "gnp") return {spec.n, graph::gnp_edge_stream(spec.n, spec.p, spec.seed)};
  if (spec.family == "complete") return {spec.n, graph::complete_edge_stream(spec.n)};
  if (spec.family == "empty") return {spec.n, graph::empty_edge_stream()};
  if (spec.family == "ring") return {spec.n, graph::ring_edge_stream(spec.n)};
  if (spec.family == "path") return {spec.n, graph::path_edge_stream(spec.n)};
  if (spec.family == "star") return {spec.n, graph::star_edge_stream(spec.n)};
  if (spec.family == "grid") {
    auto stream = graph::grid2d_edge_stream(spec.rows, spec.cols);  // validates size
    return {static_cast<graph::NodeId>(static_cast<std::uint64_t>(spec.rows) * spec.cols),
            std::move(stream)};
  }
  if (spec.family == "hex") {
    auto stream = graph::hex_grid_edge_stream(spec.rows, spec.cols);  // validates size
    return {static_cast<graph::NodeId>(static_cast<std::uint64_t>(spec.rows) * spec.cols),
            std::move(stream)};
  }
  if (spec.family == "hypercube") {
    const unsigned d = hypercube_dim(spec.n);
    return {static_cast<graph::NodeId>(1) << d, graph::hypercube_edge_stream(d)};
  }
  if (spec.family == "clique-family") {
    return {graph::clique_family_node_count(spec.k, spec.k),
            graph::clique_family_edge_stream(spec.k, spec.k)};
  }
  if (spec.family == "caterpillar") {
    auto stream = graph::caterpillar_edge_stream(spec.rows, spec.cols);  // validates size
    return {static_cast<graph::NodeId>(static_cast<std::uint64_t>(spec.rows) *
                                       (1 + static_cast<std::uint64_t>(spec.cols))),
            std::move(stream)};
  }
  if (spec.family == "bipartite") {
    return {spec.n, graph::random_bipartite_edge_stream(spec.n / 2, spec.n - spec.n / 2,
                                                        spec.p, spec.seed)};
  }
  if (spec.family == "file") {
    if (spec.path.empty()) {
      throw std::invalid_argument("graph family 'file' needs a path (--graph-file)");
    }
    if (graph::is_csr_file(spec.path)) {
      throw std::invalid_argument(
          "make_graph_stream: " + spec.path + " is already a BMCSR container");
    }
    return {graph::read_edge_list_node_count(spec.path),
            graph::edge_list_file_stream(spec.path)};
  }
  if (spec.family == "tree" || spec.family == "ba" || spec.family == "geometric") {
    throw std::invalid_argument(
        "graph family '" + spec.family +
        "' has no bounded-memory edge stream (its enumeration needs O(n) state); "
        "build it in RAM and write_csr_file instead");
  }
  throw std::invalid_argument("unknown graph family: " + spec.family);
}

std::string graph_help() {
  return "graph families:\n"
         "  gnp            G(n, p)                      (--n, --p, --graph-seed)\n"
         "  geometric      random geometric, radius p   (--n, --p, --graph-seed)\n"
         "  tree           uniform random tree          (--n, --graph-seed)\n"
         "  ba             Barabasi-Albert, k edges     (--n, --k, --graph-seed)\n"
         "  bipartite      random bipartite, prob p     (--n, --p, --graph-seed)\n"
         "  complete/empty/ring/path/star               (--n)\n"
         "  grid/hex       lattice                      (--rows, --cols)\n"
         "  caterpillar    spine rows, cols legs each   (--rows, --cols)\n"
         "  hypercube      dimension round(log2 n)      (--n)\n"
         "  clique-family  Theorem 1 family, param k    (--k)\n"
         "  file           load a graph file            (--graph-file; BMCSR\n"
         "                 memory-mapped CSR or edge-list text, content-sniffed)\n";
}

std::shared_ptr<sim::FaultScenario> make_scenario(const ScenarioSpec& spec) {
  if (spec.name == "none") return nullptr;
  if (spec.name == "uniform-crash") {
    return std::make_shared<sim::UniformRandomCrash>(sim::UniformRandomCrashConfig{
        spec.rate, spec.round_lo, spec.round_hi, spec.seed});
  }
  if (spec.name == "target-degree") {
    return std::make_shared<sim::TargetHighDegree>(sim::TargetHighDegreeConfig{
        spec.budget, spec.round_lo, spec.round_hi, spec.seed});
  }
  if (spec.name == "target-boundary") {
    return std::make_shared<sim::TargetBoundary>(sim::TargetBoundaryConfig{
        spec.shards, spec.rate, spec.round_lo, spec.round_hi, spec.seed});
  }
  if (spec.name == "target-mis") {
    return std::make_shared<sim::TargetMisMembers>(sim::TargetMisMembersConfig{
        spec.round_lo, spec.budget, spec.rate, spec.seed});
  }
  if (spec.name == "churn") {
    const std::uint32_t hi = spec.round_hi == 0 ? UINT32_MAX : spec.round_hi;
    return std::make_shared<sim::ChurnStream>(sim::ChurnStreamConfig{
        spec.rate, spec.revive_delay_mean, spec.round_lo, hi, spec.seed});
  }
  if (spec.name == "budgeted") {
    return std::make_shared<sim::BudgetedAdversary>(sim::BudgetedAdversaryConfig{
        spec.budget, spec.round_lo, /*crashes_per_round=*/1});
  }
  throw std::invalid_argument("unknown fault scenario: " + spec.name);
}

std::vector<std::string> scenario_names() {
  return {"budgeted",   "churn",          "none",      "target-boundary",
          "target-degree", "target-mis", "uniform-crash"};
}

std::string scenario_help() {
  return "fault scenarios (--scenario; all deterministic per --scenario-seed):\n"
         "  none             no injected faults (default)\n"
         "  uniform-crash    each node crashes w.p. rate in [round-lo, round-hi]\n"
         "  target-degree    crash the budget highest-degree nodes in the window\n"
         "  target-boundary  crash partition-boundary nodes w.p. rate (shards cuts)\n"
         "  target-mis       adaptive: crash new MIS members (prob rate, from\n"
         "                   round-lo, at most budget crashes)\n"
         "  churn            Poisson(rate) crashes/round, geometric revives\n"
         "  budgeted         adaptive: greedy worst-case member kills (budget)\n";
}

namespace {

/// The beeping SimConfig for a spec: the shared sim knobs plus the
/// requested fault scenario.
sim::SimConfig beeping_sim_config(const AlgorithmSpec& spec) {
  sim::SimConfig config = spec.sim;
  if (auto scenario = make_scenario(spec.scenario)) {
    if (spec.shards >= 2) {
      throw std::invalid_argument(
          "--scenario: fault scenarios run on the scalar simulator (drop --shards)");
    }
    config.scenario = std::move(scenario);
  }
  if (spec.budget_seconds > 0.0) {
    config.deadline_ns = std::make_shared<std::atomic<std::int64_t>>(
        sim::steady_now_ns() + static_cast<std::int64_t>(spec.budget_seconds * 1e9));
  }
  return config;
}

/// Runs a beeping protocol either scalar or sharded (AlgorithmSpec::shards
/// >= 2).  The sharded path draws in scalar order, so both paths return
/// bit-identical results; ShardedSimulator::run refuses a protocol without
/// shard support.
sim::RunResult run_beeping(const AlgorithmSpec& spec, const graph::Graph& g,
                           sim::BeepProtocol& protocol) {
  if (spec.shards >= 2) {
    sim::ShardedSimulator simulator(g, spec.shards, beeping_sim_config(spec));
    return simulator.run(protocol, support::Xoshiro256StarStar(spec.seed));
  }
  sim::BeepSimulator simulator(g, beeping_sim_config(spec));
  return simulator.run(protocol, support::Xoshiro256StarStar(spec.seed));
}

/// A LOCAL-model run's simulator config.  LocalSimulator has no sharded
/// form and no fault injection, so those knobs are refused, not ignored.
sim::LocalSimConfig local_sim_config(const AlgorithmSpec& spec) {
  if (spec.shards >= 2) {
    throw std::invalid_argument("--shards: LOCAL-model algorithm '" + spec.name +
                                "' has no sharded simulator");
  }
  if (spec.scenario.name != "none") {
    throw std::invalid_argument(
        "--scenario: fault scenarios are a beeping-model feature; got LOCAL-model "
        "algorithm: " + spec.name);
  }
  sim::LocalSimConfig config;
  config.max_rounds = spec.sim.max_rounds;
  return config;
}

/// The spec as `algorithm` runs it.
AlgorithmSpec as_run(AlgorithmSpec spec, const Algorithm& algorithm) {
  if (algorithm.forces_keepalive) spec.sim.mis_keepalive = true;
  return spec;
}

mis::LocalFeedbackConfig local_feedback_config(const AlgorithmSpec& spec) {
  mis::LocalFeedbackConfig config;
  config.factor_low = config.factor_high = spec.factor;
  config.initial_p_low = config.initial_p_high = spec.initial_p;
  return config;
}

using BeepPtr = std::unique_ptr<sim::BeepProtocol>;

template <typename Protocol>
std::unique_ptr<sim::LocalProtocol> make_local(const AlgorithmSpec& /*spec*/) {
  return std::make_unique<Protocol>();
}

const Algorithm kAlgorithms[] = {
    {.name = "local-feedback",
     .help = "the paper's algorithm (beeping; --factor, --initial-p)",
     .beep = [](const AlgorithmSpec& s, const graph::Graph&) -> BeepPtr {
       return std::make_unique<mis::LocalFeedbackMis>(local_feedback_config(s));
     }},
    {.name = "local-feedback-exact",
     .help = "Definition 1 with integer exponents (beeping)",
     .beep = [](const AlgorithmSpec&, const graph::Graph&) -> BeepPtr {
       return std::make_unique<mis::ExactLocalFeedbackMis>();
     }},
    {.name = "self-healing",
     .help = "local feedback + reactivation on silence (beeping; forces keepalive)",
     .beep = [](const AlgorithmSpec& s, const graph::Graph&) -> BeepPtr {
       mis::SelfHealingConfig config;
       config.base = local_feedback_config(s);
       return std::make_unique<mis::SelfHealingLocalFeedbackMis>(config);
     },
     .forces_keepalive = true},
    {.name = "pure-beep",
     .help = "local feedback without sender collision detection",
     .beep = [](const AlgorithmSpec& s, const graph::Graph&) -> BeepPtr {
       return std::make_unique<mis::PureBeepLocalFeedbackMis>(/*subslots=*/8, s.factor);
     }},
    {.name = "global-sweep",
     .help = "Afek et al. DISC'11 sweeping schedule (beeping)",
     .beep = [](const AlgorithmSpec&, const graph::Graph&) -> BeepPtr {
       return std::make_unique<mis::GlobalScheduleMis>(mis::make_global_sweep_mis());
     }},
    {.name = "global-increasing",
     .help = "Science'11-style increasing schedule (beeping)",
     .beep = [](const AlgorithmSpec&, const graph::Graph& g) -> BeepPtr {
       // Parameterised as mis::run_global_increasing (mis.cpp) does.
       return std::make_unique<mis::GlobalScheduleMis>(
           mis::make_global_increasing_mis(g.max_degree(), g.node_count()));
     }},
    {.name = "luby",
     .help = "Luby's algorithm (LOCAL model, 64-bit messages)",
     .local = make_local<mis::LubyMis>},
    {.name = "luby-degree",
     .help = "Luby's original 1/(2d) marking variant (LOCAL model)",
     .local = make_local<mis::LubyDegreeMis>},
    {.name = "metivier",
     .help = "Metivier et al. bitwise MIS (LOCAL model, 1-bit)",
     .local = make_local<mis::MetivierMis>},
    {.name = "greedy-id",
     .help = "deterministic id-minimum (LOCAL model, 1-bit)",
     .local = make_local<mis::GreedyIdMis>},
};

const Algorithm& find_algorithm(const std::string& name) {
  for (const Algorithm& algorithm : kAlgorithms) {
    if (algorithm.name == name) return algorithm;
  }
  throw std::invalid_argument("unknown algorithm: " + name);
}

}  // namespace

std::span<const Algorithm> algorithms() { return kAlgorithms; }

sim::RunResult run_algorithm(const AlgorithmSpec& request, const graph::Graph& g) {
  const Algorithm& algorithm = find_algorithm(request.name);
  const AlgorithmSpec spec = as_run(request, algorithm);
  if (algorithm.beep != nullptr) return run_beeping(spec, g, *algorithm.beep(spec, g));
  sim::LocalSimulator simulator(g, local_sim_config(spec));
  return simulator.run(*algorithm.local(spec), support::Xoshiro256StarStar(spec.seed));
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const Algorithm& algorithm : kAlgorithms) names.emplace_back(algorithm.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::string algorithm_help() {
  constexpr std::size_t kHelpColumn = 21;
  std::string help = "algorithms:\n";
  for (const Algorithm& algorithm : kAlgorithms) {
    std::string line = "  " + std::string(algorithm.name) + "  ";
    line.resize(std::max(line.size(), kHelpColumn), ' ');
    help += line + std::string(algorithm.help) + '\n';
  }
  return help;
}

double parse_seconds_flag(const std::string& flag, const std::string& value) {
  const auto bad = [&] {
    throw std::invalid_argument(flag + ": expected a finite, non-negative number of seconds, got '" +
                                value + "'");
  };
  if (value.empty()) bad();
  const char* begin = value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end != begin + value.size()) bad();        // trailing garbage ("5s", "1,5")
  if (!std::isfinite(parsed) || parsed < 0.0) bad();  // "nan", "inf", "-1"
  return parsed;
}

std::size_t parse_count_flag(const std::string& flag, const std::string& value,
                             std::size_t max) {
  const auto bad = [&] {
    throw std::invalid_argument(flag + ": expected a non-negative integer no greater than " +
                                std::to_string(max) + ", got '" + value + "'");
  };
  if (value.empty() || value.size() > 19) bad();  // 19 digits always fits in 63 bits
  std::size_t parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') bad();  // rejects "-3", "+3", "1e3", "7x"
    parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
  }
  if (parsed > max) bad();
  return parsed;
}

std::uint64_t sweep_fingerprint(const SweepSpec& spec) {
  // The fingerprint IS the hash of the canonical request text: the serialized
  // form, the cache key and the journal key can never drift apart.  Golden
  // values are pinned in tests/test_sweep_spec.cpp — see the stability
  // contract on the declaration before changing anything here.
  support::StableHash h;
  h.update(format_sweep_request(spec));
  return h.digest();
}

harness::TrialStats run_sweep(const SweepSpec& spec) { return run_sweep(spec, SweepHooks{}); }

harness::TrialStats run_sweep(const SweepSpec& spec, const SweepHooks& hooks) {
  const Algorithm& algorithm = find_algorithm(spec.algorithm.name);
  const AlgorithmSpec aspec = as_run(spec.algorithm, algorithm);
  // Build the graph once up front: it is shared across trials (the CLI
  // sweep semantics) and parameterises the global-increasing schedule.
  auto g = std::make_shared<const graph::Graph>(make_graph(spec.graph));

  harness::TrialConfig config;
  config.trials = spec.trials;
  config.base_seed = spec.base_seed;
  config.threads = spec.threads;
  config.shared_graph = true;
  config.shards = aspec.shards;  // AlgorithmSpec default 1 = never auto-shard
  config.sim = aspec.sim;
  config.journal_path = spec.journal_path;
  config.resume = spec.resume;
  config.budget_seconds = spec.budget_seconds;
  config.trial_timeout_seconds = spec.trial_timeout_seconds;
  config.isolate_trial_faults = spec.isolate_faults;
  config.max_retries = spec.max_retries;
  config.checkpoint_interval = spec.checkpoint_interval;
  config.request_fingerprint = sweep_fingerprint(spec);
  config.on_checkpoint = hooks.on_checkpoint;
  config.stop_request = hooks.stop_request;

  const harness::GraphFactory graphs = [g](support::Xoshiro256StarStar&) { return *g; };
  if (algorithm.local != nullptr) {
    config.local_sim = local_sim_config(aspec);
    return harness::run_local_trials(
        graphs, [aspec, make = algorithm.local] { return make(aspec); }, config);
  }
  if (aspec.scenario.name != "none") {
    const ScenarioSpec sspec = aspec.scenario;
    config.scenario = [sspec]() { return make_scenario(sspec)->clone(); };
  }
  return harness::run_beep_trials(
      graphs, [aspec, g, make = algorithm.beep] { return make(aspec, *g); }, config);
}

}  // namespace beepmis::cli
