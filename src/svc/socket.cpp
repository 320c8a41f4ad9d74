#include "svc/socket.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace beepmis::svc {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path empty or longer than sun_path limit (" +
                                std::to_string(sizeof(addr.sun_path) - 1) + "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// poll() one fd for readability; returns false on timeout.  Retries
/// EINTR with the full timeout again (good enough for the service's
/// short poll slices).
bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) throw_errno("poll");
  }
}

}  // namespace

// --- UnixStream -----------------------------------------------------------

UnixStream::~UnixStream() { close(); }

UnixStream::UnixStream(UnixStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

UnixStream& UnixStream::operator=(UnixStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

UnixStream UnixStream::connect(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect " + path);
  }
  return UnixStream(fd);
}

void UnixStream::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void UnixStream::close_gracefully() noexcept {
  if (fd_ >= 0) {
    // After SHUT_RD the peer can no longer queue input, so one
    // non-blocking pass empties the receive queue for good.
    ::shutdown(fd_, SHUT_RDWR);
    char sink[4096];
    while (::recv(fd_, sink, sizeof(sink), MSG_DONTWAIT) > 0) {
    }
  }
  close();
}

void UnixStream::write_all(std::string_view data) {
  if (fd_ < 0) throw std::runtime_error("write on closed stream");
  while (!data.empty()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE —
    // the server writes from plain connection threads with no handler.
    const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

void UnixStream::write_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  write_all(framed);
}

UnixStream::ReadStatus UnixStream::read_line(std::string& line, int timeout_ms) {
  if (fd_ < 0) throw std::runtime_error("read on closed stream");
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return ReadStatus::kLine;
    }
    if (timeout_ms >= 0 && !wait_readable(fd_, timeout_ms)) return ReadStatus::kTimeout;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (!buffer_.empty()) throw std::runtime_error("peer closed mid-line (torn request)");
      return ReadStatus::kEof;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

// --- UnixListener ---------------------------------------------------------

UnixListener::UnixListener(std::string path) : path_(std::move(path)) {
  const sockaddr_un addr = make_addr(path_);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  // The service owns its socket path: a stale file from a killed server
  // would make bind fail with EADDRINUSE forever.
  ::unlink(path_.c_str());
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + path_);
  }
  if (::listen(fd_, 64) != 0) {
    const int saved = errno;
    close();
    errno = saved;
    throw_errno("listen " + path_);
  }
}

UnixListener::~UnixListener() { close(); }

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

void UnixListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (!path_.empty()) ::unlink(path_.c_str());
  }
}

std::optional<UnixStream> UnixListener::accept(int timeout_ms) {
  if (fd_ < 0) throw std::runtime_error("accept on closed listener");
  for (;;) {
    if (timeout_ms >= 0 && !wait_readable(fd_, timeout_ms)) return std::nullopt;
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) return UnixStream(conn);
    // A peer can connect and hang up between poll and accept.
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (timeout_ms >= 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return std::nullopt;
    throw_errno("accept");
  }
}

}  // namespace beepmis::svc
