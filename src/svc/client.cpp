#include "svc/client.hpp"

#include <stdexcept>

#include "exp/stats_io.hpp"
#include "support/hash.hpp"

namespace beepmis::svc {

namespace {

using harness::statsio::parse_size;
using harness::statsio::split_tokens;
using harness::statsio::unescape_text;
using support::parse_hex_u64;

/// "key=value" accessor over a result/ack token; empty when absent.
std::string field(const std::vector<std::string>& tokens, const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& t : tokens) {
    if (t.compare(0, prefix.size(), prefix) == 0) return t.substr(prefix.size());
  }
  return {};
}

}  // namespace

SweepClient SweepClient::connect(const std::string& socket_path) {
  return SweepClient(UnixStream::connect(socket_path));
}

void SweepClient::send_line(const std::string& line) {
  try {
    stream_.write_line(line);
    send_error_.clear();
  } catch (const std::runtime_error& e) {
    // A winding-down beepmisd answers every open connection with a final
    // refusal line and closes it.  A request that crossed that close
    // cannot be sent, but the refusal is still readable: it becomes the
    // reply, and only its absence is an error.
    send_error_ = e.what();
  }
}

std::string SweepClient::read_line_or_throw() {
  std::string line;
  const UnixStream::ReadStatus rs = stream_.read_line(line);
  if (rs != UnixStream::ReadStatus::kLine) {
    throw std::runtime_error(send_error_.empty()
                                 ? "beepmisd closed the connection mid-stream"
                                 : "beepmisd closed the connection (" + send_error_ + ")");
  }
  return line;
}

bool SweepClient::ping() {
  send_line("ping");
  return read_line_or_throw() == "pong";
}

std::string SweepClient::drain() {
  send_line("drain");
  return read_line_or_throw();
}

std::string SweepClient::stop() {
  send_line("stop");
  return read_line_or_throw();
}

SweepClient::Event SweepClient::submit(const std::string& spec_text, int priority,
                                       const std::string& client_id) {
  if (client_id.empty() || client_id.find_first_of(" \t\n") != std::string::npos) {
    throw std::invalid_argument("client_id must be one whitespace-free token");
  }
  if (priority < 0 || priority > 9) throw std::invalid_argument("priority must be in 0..9");
  send_line("submit " + client_id + " " + std::to_string(priority) + " " + spec_text);
  return next_event();
}

SweepClient::Event SweepClient::run(const std::string& spec_text, int priority,
                                    const std::string& client_id) {
  Event event = submit(spec_text, priority, client_id);
  while (event.kind == Event::Kind::kAck || event.kind == Event::Kind::kProgress) {
    event = next_event();
  }
  return event;
}

SweepClient::Event SweepClient::next_event() { return parse_event(read_line_or_throw()); }

SweepClient::Event SweepClient::parse_event(const std::string& line) {
  Event event;
  const std::vector<std::string> tokens = split_tokens(line);
  if (tokens.empty()) throw std::runtime_error("empty reply line from beepmisd");

  if (tokens[0] == "error") {
    event.kind = Event::Kind::kError;
    if (tokens.size() != 2 || !unescape_text(tokens[1], event.message)) {
      throw std::runtime_error("malformed error line from beepmisd: " + line);
    }
    return event;
  }

  if (tokens[0] == "ack") {
    if (tokens.size() != 4 || !parse_hex_u64(tokens[1], event.fingerprint) ||
        tokens[3].compare(0, 7, "chunks=") != 0 ||
        !parse_size(tokens[3].substr(7), event.chunks_total)) {
      throw std::runtime_error("malformed ack line from beepmisd: " + line);
    }
    event.kind = Event::Kind::kAck;
    event.ack_mode = tokens[2];
    return event;
  }

  if (tokens[0] == "progress") {
    if (tokens.size() != 4 || !parse_hex_u64(tokens[1], event.fingerprint) ||
        !parse_size(tokens[2], event.chunks_done) || !parse_size(tokens[3], event.chunks_total)) {
      throw std::runtime_error("malformed progress line from beepmisd: " + line);
    }
    event.kind = Event::Kind::kProgress;
    return event;
  }

  if (tokens[0] == "result") {
    if (tokens.size() != 5 || !parse_hex_u64(tokens[1], event.fingerprint)) {
      throw std::runtime_error("malformed result line from beepmisd: " + line);
    }
    event.kind = Event::Kind::kResult;
    event.status = field(tokens, "status");
    const std::string exit_text = field(tokens, "exit");
    const std::string cached_text = field(tokens, "cached");
    std::size_t exit_value = 0;
    if (event.status.empty() || !parse_size(exit_text, exit_value) || exit_value > 3 ||
        (cached_text != "0" && cached_text != "1")) {
      throw std::runtime_error("malformed result line from beepmisd: " + line);
    }
    event.exit_code = static_cast<int>(exit_value);
    event.cached = cached_text == "1";

    // Body: optional framed-stats payload, optional reason, then the end
    // marker.  The payload's own line keywords (stat/counts/meta/...)
    // never collide with "reason"/"end".
    std::string payload;
    for (;;) {
      const std::string body = read_line_or_throw();
      const std::vector<std::string> body_tokens = split_tokens(body);
      if (!body_tokens.empty() && body_tokens[0] == "end") {
        std::uint64_t end_fp = 0;
        if (body_tokens.size() != 2 || !parse_hex_u64(body_tokens[1], end_fp) ||
            end_fp != event.fingerprint) {
          throw std::runtime_error("malformed end line from beepmisd: " + body);
        }
        break;
      }
      if (!body_tokens.empty() && body_tokens[0] == "reason") {
        if (body_tokens.size() != 2 || !unescape_text(body_tokens[1], event.message)) {
          throw std::runtime_error("malformed reason line from beepmisd: " + body);
        }
        continue;
      }
      payload += body;
      payload += '\n';
    }
    if (!payload.empty()) {
      std::string error;
      if (!harness::parse_trial_stats(payload, event.stats, error)) {
        throw std::runtime_error("beepmisd result payload rejected: " + error);
      }
      event.has_stats = true;
    }
    return event;
  }

  throw std::runtime_error("unexpected reply line from beepmisd: " + line);
}

}  // namespace beepmis::svc
