// beepmis_client: thin beepmisd client.  Submits one serialized
// SweepSpec (cli/sweep_spec.hpp) and prints the streamed progress plus
// the same bit-exact stats digest beepmis_cli prints for a local sweep
// (stats_bits / counts_exact lines), so scripts can diff a served
// result against a direct run — the kill-and-restart resume oracle does
// exactly that.  Exits with the server-reported sweep exit code
// (0 complete, 2 quarantined, 3 truncated, 1 failed/degraded).
//
//   ./beepmis_client --socket=/tmp/beepmis.sock
//       --spec='sweepspec v3 graph=gnp graph.n=2000 ... trials=128'
//   ./beepmis_client --socket=... --ping     # liveness probe
//   ./beepmis_client --socket=... --drain    # graceful shutdown
//   ./beepmis_client --socket=... --stop     # fast durable shutdown
#include <bit>
#include <cstdint>
#include <iostream>
#include <limits>

#include "cli/registry.hpp"
#include "support/hash.hpp"
#include "support/options.hpp"
#include "svc/client.hpp"

namespace {

/// Same bit-exact digest lines as beepmis_cli's sweep mode.
void print_stats_bits(const char* name, const beepmis::support::RunningStats& s) {
  using beepmis::support::to_hex_u64;
  const auto st = s.state();
  std::cout << "stats_bits " << name << ' ' << st.count << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.mean)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.m2)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.min)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.max)) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("socket", "", "beepmisd unix socket path (required)");
  options.add("spec", "", "serialized sweep request ('sweepspec v3 ...')");
  options.add("client", "beepmis_client", "fair-share client id (one token)");
  options.add("priority", "0", "job priority 0-9 (higher runs first)");
  options.add("ping", "false", "probe the server and exit");
  options.add("drain", "false", "ask the server to drain and exit");
  options.add("stop", "false", "ask the server to stop fast and exit");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("beepmis_client");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("beepmis_client");
    return 0;
  }

  try {
    svc::SweepClient client = svc::SweepClient::connect(options.get("socket"));
    if (options.get_bool("ping")) {
      std::cout << (client.ping() ? "pong" : "unexpected reply") << '\n';
      return 0;
    }
    if (options.get_bool("drain")) {
      std::cout << client.drain() << '\n';
      return 0;
    }
    if (options.get_bool("stop")) {
      std::cout << client.stop() << '\n';
      return 0;
    }

    const std::string spec_text = options.get("spec");
    if (spec_text.empty()) {
      std::cerr << "beepmis_client: --spec is required (or --ping/--drain/--stop)\n";
      return 1;
    }
    using Event = svc::SweepClient::Event;
    const auto priority =
        static_cast<int>(options.get_u64("priority", std::numeric_limits<int>::max()));
    Event event = client.submit(spec_text, priority, options.get("client"));
    while (event.kind == Event::Kind::kAck || event.kind == Event::Kind::kProgress) {
      if (event.kind == Event::Kind::kAck) {
        std::cout << "ack " << support::to_hex_u64(event.fingerprint) << ' ' << event.ack_mode
                  << " chunks=" << event.chunks_total << std::endl;
      } else {
        std::cout << "progress " << event.chunks_done << '/' << event.chunks_total << std::endl;
      }
      event = client.next_event();
    }
    if (event.kind == Event::Kind::kError) {
      std::cerr << "beepmis_client: server: " << event.message << '\n';
      return 1;
    }

    std::cout << "result status=" << event.status << " exit=" << event.exit_code
              << " cached=" << (event.cached ? 1 : 0) << '\n';
    if (!event.message.empty()) std::cout << "reason: " << event.message << '\n';
    if (event.has_stats) {
      const harness::TrialStats& stats = event.stats;
      if (!stats.resume_discarded_reason.empty()) {
        std::cout << "journal rejected: " << stats.resume_discarded_reason << '\n';
      }
      std::cout << "sweep: requested " << stats.requested_trials << ", completed "
                << stats.trials << ", attempted " << stats.attempted << ", quarantined "
                << stats.quarantined << ", retries " << stats.retries << ", resumed "
                << stats.resumed_trials << ", truncated " << (stats.truncated ? 1 : 0) << '\n';
      print_stats_bits("rounds", stats.rounds);
      print_stats_bits("beeps_per_node", stats.beeps_per_node);
      print_stats_bits("max_beeps_any_node", stats.max_beeps_any_node);
      print_stats_bits("mis_size", stats.mis_size);
      print_stats_bits("message_bits", stats.message_bits);
      std::cout << "counts_exact " << stats.trials << ' ' << stats.terminated << ' '
                << stats.valid << ' ' << stats.independence_violations << ' '
                << stats.uncovered_nodes << '\n';
    }
    return event.exit_code;
  } catch (const std::exception& e) {
    std::cerr << "beepmis_client: " << e.what() << '\n';
    return 1;
  }
}
