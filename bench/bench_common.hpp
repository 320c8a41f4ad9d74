// Scaffolding shared by the BENCH_core.json programs (bench_frontier,
// bench_batch, bench_shard, bench_graph_tier, bench_scenarios): best-of-N
// wall timing with its phase snapshot, and the JSON report envelope.  The
// envelope — header fields incl. git revision + compiler, a "results"
// array, the stdout-echo + --out file handling — must stay in one place:
// scripts/bench_core.sh merges the reports, so a format change applied to
// only one driver would silently skew the merged BENCH_core.json.
#pragma once

#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/phase_timer.hpp"

namespace beepmis::benchcommon {

[[nodiscard]] inline std::string json_string(const std::string& s) {
  return "\"" + s + "\"";  // bench values contain no characters needing escapes
}

/// Snapshot-and-reset of the per-phase timing counters as a row fragment:
/// `, "phase_ns": {"beep/emit": 1234, ...}`.  Empty in a normal build
/// (BEEPMIS_PHASE_TIMERS off — the registry never fills), so rows only
/// carry phase_ns when the timers were compiled in; downstream tooling
/// treats the field as optional.
[[nodiscard]] inline std::string phase_ns_fragment() {
  const std::vector<support::PhaseStat> stats = support::snapshot_phase_timers();
  support::reset_phase_timers();
  if (stats.empty()) return {};
  std::ostringstream out;
  out << ", \"phase_ns\": {";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << stats[i].name << "\": " << stats[i].total_ns;
  }
  out << "}";
  return out.str();
}

/// One timed bench row: the fastest rep's wall time and the phase_ns
/// fragment of that same rep.
struct BestRep {
  double wall_ms = std::numeric_limits<double>::infinity();
  std::string phase;
};

/// Runs `run` `reps` times and keeps the fastest rep.  The phase timers are
/// reset before each rep, so a row's phase_ns covers exactly the rep its
/// wall_ms timed (warm-up and verification runs excluded); on a
/// single-threaded front-end its phases add up to at most wall_ms.
template <typename Run>
BestRep best_rep(int reps, Run&& run) {
  BestRep best;
  for (int r = 0; r < reps; ++r) {
    support::reset_phase_timers();
    const auto start = std::chrono::steady_clock::now();
    run();
    const auto stop = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < best.wall_ms) best = {ms, phase_ns_fragment()};
  }
  return best;
}

/// Default-ostream formatting (like the row writers), not std::to_string's
/// fixed six decimals.
template <typename Number>
[[nodiscard]] std::string json_number(Number value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// One bench report: ordered header fields (values are raw JSON) plus
/// pre-rendered row objects under "results".  Every report automatically
/// leads with the bench name and records the git revision (normally
/// injected by scripts/bench_core.sh via --git-rev) and the compiler.
struct JsonReport {
  std::string bench;
  std::string git_rev = "unknown";
  std::vector<std::pair<std::string, std::string>> header;  ///< key -> raw JSON
  std::vector<std::string> rows;                            ///< rendered objects

  void write(std::ostream& out) const {
    out << "{\n  \"bench\": " << json_string(bench)
        << ",\n  \"git_rev\": " << json_string(git_rev)
        << ",\n  \"compiler\": " << json_string(__VERSION__);
    for (const auto& [key, value] : header) {
      out << ",\n  \"" << key << "\": " << value;
    }
    out << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    " << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  /// Echoes the report to `echo` and, unless out_path is "-", also writes
  /// it to the file.  Returns false (after complaining) when the file
  /// cannot be opened.
  bool write_to(const std::string& out_path, std::ostream& echo) const {
    write(echo);
    if (out_path == "-") return true;
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << '\n';
      return false;
    }
    write(out);
    echo << "wrote " << out_path << '\n';
    return true;
  }
};

}  // namespace beepmis::benchcommon
