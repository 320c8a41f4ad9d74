// SweepClient — the typed peer of SweepService's line protocol
// (src/svc/README.md).  Submits a serialized SweepSpec and turns the
// server's reply stream (ack, progress*, result+payload, end) back into
// events carrying a decoded harness::TrialStats, so callers get the
// same object a direct cli::run_sweep would have returned —
// bit-identical, which the e2e tests assert.
#pragma once

#include <cstdint>
#include <string>

#include "exp/runner.hpp"
#include "svc/socket.hpp"

namespace beepmis::svc {

class SweepClient {
 public:
  /// Connects to a running beepmisd.  Throws std::runtime_error when the
  /// socket is absent or refuses.
  [[nodiscard]] static SweepClient connect(const std::string& socket_path);

  /// What one server reply line (or result block) decodes to.
  struct Event {
    enum class Kind { kAck, kProgress, kResult, kError };
    Kind kind = Kind::kError;
    std::uint64_t fingerprint = 0;
    /// kAck: cached | queued | attached.
    std::string ack_mode;
    std::size_t chunks_done = 0;
    std::size_t chunks_total = 0;
    /// kResult: complete | degraded | quarantined | truncated | failed |
    /// stopped (beepmis_cli's exit contract: 0/1/2/3; failed/stopped = 1).
    std::string status;
    int exit_code = 0;
    bool cached = false;
    /// kResult with a payload (every status except failed/stopped).
    bool has_stats = false;
    harness::TrialStats stats;
    /// kError text, or kResult failure/stop reason.
    std::string message;
  };

  /// Sends one submit and returns the server's first reply — kAck on
  /// acceptance (follow with next_event() until kResult), kError on
  /// rejection.  `client_id` must be a single whitespace-free token;
  /// `priority` in 0..9, higher runs first.
  [[nodiscard]] Event submit(const std::string& spec_text, int priority = 0,
                             const std::string& client_id = "client");

  /// Next streamed event for the in-flight submit: kProgress zero or more
  /// times, then exactly one kResult or kError.  Throws std::runtime_error
  /// if the server vanishes mid-stream.
  [[nodiscard]] Event next_event();

  /// Convenience: submit and pump until the terminal event (kResult /
  /// kError), which is returned.
  [[nodiscard]] Event run(const std::string& spec_text, int priority = 0,
                          const std::string& client_id = "client");

  /// Round-trips the trivial liveness verb.  Returns false on a wrong
  /// reply; throws if the connection is gone.
  [[nodiscard]] bool ping();

  /// Sends "drain" / "stop" and returns the server's acknowledgement line.
  std::string drain();
  std::string stop();

 private:
  explicit SweepClient(UnixStream stream) : stream_(std::move(stream)) {}
  void send_line(const std::string& line);
  [[nodiscard]] std::string read_line_or_throw();
  [[nodiscard]] Event parse_event(const std::string& line);

  UnixStream stream_;
  std::string send_error_;  ///< why the last send failed ("" = it did not)
};

}  // namespace beepmis::svc
