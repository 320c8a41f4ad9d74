// Round-count distributions (the error bars of Figure 3, in full): per-run
// histograms of termination time for the global sweep and local feedback
// on G(n, 1/2), plus tail statistics backing Theorem 2's w.h.p. claim
// (the tail decays geometrically, so the 99th percentile sits within a
// small factor of the median).
//
//   ./bench_distribution [--n=500] [--runs=400]
#include <algorithm>
#include <iostream>
#include <limits>
#include <vector>

#include "graph/generators.hpp"
#include "mis/mis.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"

namespace {

using namespace beepmis;

void report(const std::string& label, std::vector<double> rounds) {
  const support::Summary summary = support::summarize(rounds);
  std::sort(rounds.begin(), rounds.end());
  const double p99 = support::quantile_sorted(rounds, 0.99);

  std::cout << label << ":\n"
            << "  mean " << summary.mean << ", sd " << summary.stddev << ", median "
            << summary.median << ", p99 " << p99 << ", max " << summary.max
            << "  (p99/median = " << p99 / summary.median << ")\n\n";
  support::Histogram histogram(summary.min, summary.max + 1.0,
                               std::min<std::size_t>(18, rounds.size()));
  for (const double r : rounds) histogram.push(r);
  std::cout << histogram.render(48) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "500", "graph size");
  options.add("runs", "400", "independent runs per algorithm");
  options.add("seed", "20130804", "base seed");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_distribution");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_distribution");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(
      options.get_u64("n", std::numeric_limits<graph::NodeId>::max()));
  const auto runs = static_cast<std::size_t>(options.get_int("runs"));
  const std::uint64_t seed = options.get_u64("seed");

  std::cout << "=== termination-time distributions on G(" << n << ", 1/2), " << runs
            << " runs ===\n\n";

  std::vector<double> local, global;
  local.reserve(runs);
  global.reserve(runs);
  for (std::size_t t = 0; t < runs; ++t) {
    auto rng = support::Xoshiro256StarStar(support::mix_seed(seed, t));
    const graph::Graph g = graph::gnp(n, 0.5, rng);
    local.push_back(static_cast<double>(mis::run_local_feedback(g, t).rounds));
    global.push_back(static_cast<double>(mis::run_global_sweep(g, t).rounds));
  }

  report("local feedback", std::move(local));
  report("global sweep", std::move(global));

  std::cout << "Theorem 2 (w.h.p. bound) predicts a geometric tail for the local\n"
               "algorithm: p99 within a small factor of the median, no extreme outliers.\n";
  return 0;
}
