// Fly sensory-organ-precursor (SOP) selection: the biological system the
// paper abstracts from.  Proneural cells sit in an epithelial sheet
// (modelled as a hexagonal lattice); Notch-Delta lateral inhibition picks
// SOPs so every cell is an SOP or touches one, and no two SOPs touch —
// exactly an MIS.  This example runs the local-feedback algorithm on the
// lattice, renders the resulting bristle pattern, and replays the
// developmental timeline from the event trace.
//
//   ./fly_sop [--rows=14] [--cols=30] [--seed=2013] [--timeline]
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "mis/mis.hpp"
#include "sim/trace.hpp"
#include "support/options.hpp"

namespace {

using namespace beepmis;

std::string render_epithelium(graph::NodeId rows, graph::NodeId cols,
                              const std::vector<sim::NodeStatus>& status) {
  std::string out;
  for (graph::NodeId r = 0; r < rows; ++r) {
    // Offset alternate rows to suggest hexagonal packing.
    out += (r % 2 == 1) ? " " : "";
    for (graph::NodeId c = 0; c < cols; ++c) {
      const sim::NodeStatus s = status[r * cols + c];
      out += (s == sim::NodeStatus::kInMis) ? "* " : ". ";
    }
    out += '\n';
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("rows", "14", "epithelium rows");
  options.add("cols", "30", "epithelium columns");
  options.add("seed", "2013", "random seed");
  options.add("timeline", "false", "print per-round SOP commitment timeline");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("fly_sop");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("fly_sop");
    return 0;
  }

  const auto rows = static_cast<graph::NodeId>(
      options.get_u64("rows", std::numeric_limits<graph::NodeId>::max()));
  const auto cols = static_cast<graph::NodeId>(
      options.get_u64("cols", std::numeric_limits<graph::NodeId>::max()));
  const std::uint64_t seed = options.get_u64("seed");

  const graph::Graph sheet = graph::hex_grid(rows, cols);
  std::cout << "proneural cluster: " << rows << "x" << cols << " cells ("
            << sheet.describe() << ")\n\n";

  // Run with trace recording so the developmental timeline can be replayed.
  mis::LocalFeedbackMis notch_delta;  // lateral inhibition with feedback
  sim::SimConfig config;
  config.record_trace = true;
  sim::BeepSimulator simulator(sheet, config);
  const sim::RunResult result =
      simulator.run(notch_delta, support::Xoshiro256StarStar(seed));

  const mis::VerificationReport report = mis::verify_mis_run(sheet, result);
  std::cout << "SOP pattern after " << result.rounds << " time steps ('*' = SOP):\n\n"
            << render_epithelium(rows, cols, result.status) << '\n'
            << "SOPs: " << report.mis_size << " / " << sheet.node_count() << " cells ("
            << 100.0 * static_cast<double>(report.mis_size) /
                   static_cast<double>(sheet.node_count())
            << "%)\n"
            << "pattern is a valid MIS: " << (report.valid() ? "yes" : "NO") << '\n'
            << "mean Delta bursts (beeps) per cell: " << result.mean_beeps_per_node()
            << "\n";

  if (options.get_bool("timeline")) {
    std::cout << "\ndevelopmental timeline (cells committing per time step):\n";
    const sim::Trace& trace = simulator.trace();
    std::vector<std::size_t> sops(result.rounds, 0), inhibited(result.rounds, 0);
    for (const sim::Event& e : trace.events()) {
      if (e.kind == sim::EventKind::kJoinMis) ++sops[e.round];
      if (e.kind == sim::EventKind::kDeactivate) ++inhibited[e.round];
    }
    std::size_t undecided = sheet.node_count();
    for (std::size_t t = 0; t < result.rounds; ++t) {
      undecided -= sops[t] + inhibited[t];
      std::cout << "  t=" << t << ": +" << sops[t] << " SOPs, +" << inhibited[t]
                << " inhibited, " << undecided << " undecided\n";
    }
  }
  return report.valid() ? 0 : 1;
}
