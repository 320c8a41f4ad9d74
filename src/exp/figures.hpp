// Concrete experiment definitions for every figure/table in the paper's
// evaluation, plus the extension experiments from DESIGN.md.  Each function
// returns plain row structs; the bench binaries render them as tables,
// plots and CSV.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "mis/local_feedback.hpp"

namespace beepmis::harness {

struct ExperimentConfig {
  std::size_t trials = 100;
  std::uint64_t base_seed = 0x5eed;
  unsigned threads = 0;  ///< 0 = hardware concurrency
};

/// One point of Figure 3: mean/stddev time steps on G(n, 1/2) for the two
/// beeping algorithms, plus the paper's two reference curves.
struct Figure3Row {
  std::size_t n = 0;
  double global_mean = 0, global_stddev = 0;
  double local_mean = 0, local_stddev = 0;
  double reference_log2_squared = 0;  ///< (log2 n)^2, the upper dashed line
  double reference_25_log2 = 0;       ///< 2.5 log2 n, the lower dotted line
};
[[nodiscard]] std::vector<Figure3Row> figure3_experiment(std::span<const std::size_t> ns,
                                                         const ExperimentConfig& config);

/// One point of Figure 5: mean/stddev beeps per node on G(n, 1/2).  The
/// `increasing` series checks the paper's §5 remark that the Science'11
/// schedule (probabilities computed from n and max degree, gradually
/// increased) keeps beeps bounded, unlike the sweep.
struct Figure5Row {
  std::size_t n = 0;
  double global_mean = 0, global_stddev = 0;
  double increasing_mean = 0, increasing_stddev = 0;
  double local_mean = 0, local_stddev = 0;
};
[[nodiscard]] std::vector<Figure5Row> figure5_experiment(std::span<const std::size_t> ns,
                                                         const ExperimentConfig& config);

/// Beeps per node for local feedback on rectangular grids (§5: "around
/// 1.1" for grid graphs).
struct GridBeepsRow {
  std::size_t side = 0;  ///< grid is side x side
  double local_mean = 0, local_stddev = 0;
};
[[nodiscard]] std::vector<GridBeepsRow> grid_beeps_experiment(
    std::span<const std::size_t> sides, const ExperimentConfig& config);

/// Theorem 1 family: rounds for global sweep vs local feedback on the
/// clique family with parameter k (k copies of K_d for d = 1..k).
struct Theorem1Row {
  std::size_t k = 0;           ///< family parameter (= n^{1/3} in the paper)
  std::size_t node_count = 0;  ///< k * k(k+1)/2 nodes
  double global_mean = 0, global_stddev = 0;
  double local_mean = 0, local_stddev = 0;
};
[[nodiscard]] std::vector<Theorem1Row> theorem1_experiment(std::span<const std::size_t> ks,
                                                           const ExperimentConfig& config);

/// All-baselines comparison: rounds and communication on a named family.
struct ComparisonRow {
  std::string family;
  std::size_t n = 0;
  double luby_rounds = 0, luby_rounds_stddev = 0;
  double metivier_rounds = 0;
  double greedy_id_rounds = 0;
  double local_rounds = 0, local_rounds_stddev = 0;
  double luby_message_bits = 0;      ///< mean total bits sent by Luby
  double metivier_message_bits = 0;  ///< mean total bits (bitwise protocol)
  double local_total_beeps = 0;      ///< mean total beeps (1-bit messages)
};
[[nodiscard]] std::vector<ComparisonRow> luby_comparison_experiment(
    std::span<const std::size_t> ns, const ExperimentConfig& config);

/// Robustness ablation (paper §6): vary feedback factor and initial p.
struct RobustnessRow {
  std::string label;
  mis::LocalFeedbackConfig algo;
  std::size_t n = 0;
  double rounds_mean = 0, rounds_stddev = 0;
  double beeps_mean = 0;
  std::size_t valid = 0, trials = 0;
};
[[nodiscard]] std::vector<RobustnessRow> robustness_experiment(std::size_t n,
                                                               const ExperimentConfig& config);

/// Fault injection: beep-loss sweep for local feedback.
struct FaultRow {
  double loss = 0;
  double rounds_mean = 0;
  double valid_fraction = 0;       ///< trials ending in a valid MIS
  double terminated_fraction = 0;  ///< trials that terminated at all
  double independence_violations_per_trial = 0;
  double uncovered_per_trial = 0;
  /// Recovery-SLA columns, populated only by the scenario overload below.
  double disruptions_per_trial = 0;
  double unrecovered_per_trial = 0;
  double recovery_p50 = 0, recovery_p95 = 0, recovery_p99 = 0;
};
[[nodiscard]] std::vector<FaultRow> fault_experiment(std::size_t n,
                                                     std::span<const double> losses,
                                                     const ExperimentConfig& config);

/// Beep-loss sweep with a fault scenario layered on top: the self-healing
/// protocol (keepalive on, fixed maintenance tail) under both beep loss
/// and the adversary, with recovery-time quantiles per loss level.
[[nodiscard]] std::vector<FaultRow> fault_scenario_experiment(
    std::size_t n, std::span<const double> losses, const FaultScenarioFactory& scenario,
    const ExperimentConfig& config);

/// Rounds + beeps for local feedback across graph families at a given n
/// (ring, grid, tree, hypercube-ish, gnp dense/sparse, clique, star).
struct FamilyRow {
  std::string family;
  std::size_t n = 0;
  double rounds_mean = 0, rounds_stddev = 0;
  double beeps_mean = 0;
  double mis_size_mean = 0;
};
[[nodiscard]] std::vector<FamilyRow> family_experiment(std::size_t n,
                                                       const ExperimentConfig& config);

}  // namespace beepmis::harness
