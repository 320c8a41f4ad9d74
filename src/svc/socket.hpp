// Thin RAII wrappers over AF_UNIX stream sockets — the transport under
// the beepmisd experiment service (src/svc/README.md).  Deliberately
// minimal: blocking-with-poll-timeout semantics only, line-oriented
// reads matching the service's protocol, no async machinery.  Anything
// that needs cancellation (the server's accept and read loops) polls
// with a timeout and re-checks its own shutdown flag between polls.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace beepmis::svc {

/// A connected Unix-domain stream with a buffered line reader.  Move-only;
/// the destructor closes the descriptor.  Writes never raise SIGPIPE (a
/// peer that vanished surfaces as a std::runtime_error instead).
class UnixStream {
 public:
  UnixStream() = default;
  /// Adopts an already-connected descriptor (from UnixListener::accept).
  explicit UnixStream(int fd) noexcept : fd_(fd) {}
  ~UnixStream();
  UnixStream(UnixStream&& other) noexcept;
  UnixStream& operator=(UnixStream&& other) noexcept;
  UnixStream(const UnixStream&) = delete;
  UnixStream& operator=(const UnixStream&) = delete;

  /// Connects to the listener at `path`.  Throws std::runtime_error with
  /// the errno text when the socket cannot be created or connected.
  [[nodiscard]] static UnixStream connect(const std::string& path);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;
  /// Close without resetting the peer: shut both directions, discard what
  /// the peer already sent, then close.  The peer reads everything written
  /// so far followed by EOF, and a later write of its own fails with EPIPE
  /// instead of destroying that unread reply (closing a Unix stream with
  /// unread input makes the peer's next read fail with ECONNRESET, even
  /// when data is waiting for it).
  void close_gracefully() noexcept;

  /// Writes every byte (handling short writes).  Throws std::runtime_error
  /// on any error, including a disconnected peer.
  void write_all(std::string_view data);
  /// write_all of `line` plus the terminating '\n'.
  void write_line(std::string_view line);

  enum class ReadStatus { kLine, kEof, kTimeout };

  /// Reads one '\n'-terminated line into `line` (newline stripped).
  /// `timeout_ms` < 0 blocks indefinitely; otherwise the call returns
  /// kTimeout if no complete line arrives in time (buffered partial input
  /// is kept for the next call).  kEof means the peer closed cleanly with
  /// no buffered line left.  Throws std::runtime_error on socket errors
  /// and on EOF in the middle of an unterminated line (torn request).
  [[nodiscard]] ReadStatus read_line(std::string& line, int timeout_ms = -1);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A bound + listening Unix-domain socket.  Binding unlinks a stale
/// socket file first (beepmisd owns its socket path); the destructor
/// closes and unlinks.  Move-only.
class UnixListener {
 public:
  /// Binds and listens.  Throws std::invalid_argument when `path` exceeds
  /// the platform sun_path limit (~107 bytes — keep state under /tmp, not
  /// deep build trees) and std::runtime_error on socket errors.
  explicit UnixListener(std::string path);
  ~UnixListener();
  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Waits up to `timeout_ms` for a connection (< 0 = forever).  Returns
  /// nullopt on timeout; throws std::runtime_error on errors other than
  /// the retryable accept races (EINTR/ECONNABORTED).
  [[nodiscard]] std::optional<UnixStream> accept(int timeout_ms);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  void close() noexcept;

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace beepmis::svc
