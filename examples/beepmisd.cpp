// beepmisd: the persistent sweep server (src/svc/README.md).  Owns a
// Unix socket and a durable state directory; clients submit serialized
// SweepSpec lines (cli/sweep_spec.hpp) and stream back progress and a
// bit-exact TrialStats payload.  Repeated requests hit the result
// cache; duplicates attach to the in-flight job; a killed server
// resumes its queued sweeps from their journals on the next start.
//
//   ./beepmisd --socket=/tmp/beepmis.sock --state-dir=/tmp/beepmis-state
//
// SIGTERM drains gracefully (finish the backlog, then exit); SIGINT
// stops fast (checkpoint running sweeps, persist the queue, exit).
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <limits>
#include <thread>

#include "support/options.hpp"
#include "svc/server.hpp"

namespace {

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

}  // namespace

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("socket", "", "unix socket path to listen on (required)");
  options.add("state-dir", "", "durable state directory (required)");
  options.add("workers", "1", "concurrent sweep jobs");
  options.add("poll-ms", "100", "poll slice for accept/read loops");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("beepmisd");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("beepmisd");
    return 0;
  }

  svc::ServiceConfig config;
  config.socket_path = options.get("socket");
  config.state_dir = options.get("state-dir");
  config.job_workers = static_cast<unsigned>(
      options.get_u64("workers", std::numeric_limits<unsigned>::max()));
  config.poll_ms = static_cast<int>(options.get_u64("poll-ms", std::numeric_limits<int>::max()));

  try {
    svc::SweepService service(config);
    service.start();
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    {
      const svc::ServiceCounters c = service.counters();
      // The "listening" line is the readiness handshake scripts wait for.
      std::cout << "beepmisd listening on " << config.socket_path << " (state "
                << config.state_dir << ", workers " << config.job_workers << ", recovered "
                << c.recovered_pending << " pending";
      if (c.rejected_pending > 0) std::cout << ", rejected " << c.rejected_pending;
      std::cout << ")" << std::endl;
    }

    while (g_signal.load() == 0 && !service.stopped()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const int sig = g_signal.load();
    if (sig == SIGTERM) {
      std::cout << "beepmisd: SIGTERM, draining backlog" << std::endl;
      service.drain();
    } else if (sig != 0) {
      std::cout << "beepmisd: signal " << sig << ", fast stop (state persisted)" << std::endl;
      service.stop();
    }
    service.join();

    const svc::ServiceCounters c = service.counters();
    std::cout << "beepmisd: exiting; submitted " << c.submitted << ", completed " << c.completed
              << ", cache hits " << c.cache_hits << ", attached " << c.attached << ", failed "
              << c.failed << '\n';
    if (!service.internal_error().empty()) {
      std::cerr << "beepmisd: internal error: " << service.internal_error() << '\n';
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "beepmisd: " << e.what() << '\n';
    return 1;
  }
}
