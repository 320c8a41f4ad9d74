#include "exp/journal.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "exp/stats_io.hpp"
#include "support/hash.hpp"

namespace beepmis::harness {

namespace {

using statsio::decode_stats_core;
using statsio::encode_stats_core;
using statsio::parse_size;
using statsio::split_tokens;
using support::parse_hex_u64;
using support::stable_hash_bytes;
using support::to_hex_u64;

constexpr std::string_view kMagic = "beepmis-sweep-journal v1";

// The chunk body (stat/counts/recovery/failed lines) is the shared stats
// core (exp/stats_io.hpp) — byte-identical to the pre-refactor journal
// format, which is what keeps journals written by older builds loadable.
void encode_chunk(std::ostringstream& out, const JournalChunk& chunk) {
  out << "chunk " << chunk.index << "\n";
  encode_stats_core(out, chunk.stats);
  out << "end " << chunk.index << "\n";
}

}  // namespace

SweepJournal::SweepJournal(std::string path, std::uint64_t request_hash, std::size_t trials,
                           std::size_t chunk_size)
    : path_(std::move(path)), request_hash_(request_hash), trials_(trials),
      chunk_size_(chunk_size) {
  if (path_.empty()) throw std::invalid_argument("SweepJournal: empty path");
  if (chunk_size_ == 0) throw std::invalid_argument("SweepJournal: chunk_size must be >= 1");
}

void SweepJournal::save(const std::vector<JournalChunk>& chunks) const {
  std::vector<const JournalChunk*> ordered;
  ordered.reserve(chunks.size());
  for (const JournalChunk& c : chunks) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const JournalChunk* a, const JournalChunk* b) { return a->index < b->index; });

  std::ostringstream content;
  content << kMagic << "\n";
  content << "request " << to_hex_u64(request_hash_) << "\n";
  content << "trials " << trials_ << "\n";
  content << "chunk_size " << chunk_size_ << "\n";
  for (const JournalChunk* c : ordered) encode_chunk(content, *c);
  std::string body = content.str();
  body += "checksum " + to_hex_u64(stable_hash_bytes(body)) + "\n";

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("SweepJournal: cannot open " + tmp + " for writing");
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) throw std::runtime_error("SweepJournal: short write to " + tmp);
  }
  // Atomic publish: readers see the old snapshot or the new one, never a
  // torn mix.  (A torn file can still exist after a power loss — that is
  // what the whole-file checksum rejects on load.)
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("SweepJournal: rename " + tmp + " -> " + path_ + " failed");
  }
}

JournalLoadResult SweepJournal::load() const {
  JournalLoadResult result;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    result.status = JournalLoadResult::Status::kNoFile;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string file = buffer.str();

  const auto reject = [&result](std::string reason) {
    result.status = JournalLoadResult::Status::kRejected;
    result.reason = std::move(reason);
    result.chunks.clear();
    return result;
  };

  // Split into lines; require a trailing newline (a truncated final line is
  // torn content).
  if (file.empty() || file.back() != '\n') return reject("journal is truncated (no final newline)");
  std::vector<std::string_view> lines;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i < file.size(); ++i) {
      if (file[i] == '\n') {
        lines.emplace_back(file.data() + start, i - start);
        start = i + 1;
      }
    }
  }
  if (lines.size() < 5) return reject("journal too short");

  // Checksum covers every byte before the checksum line.
  const std::string_view last = lines.back();
  const auto checksum_tokens = split_tokens(last);
  std::uint64_t stored_checksum = 0;
  if (checksum_tokens.size() != 2 || checksum_tokens[0] != "checksum" ||
      !parse_hex_u64(checksum_tokens[1], stored_checksum)) {
    return reject("missing or malformed checksum line");
  }
  const std::size_t body_len = file.size() - (last.size() + 1);
  if (stable_hash_bytes(std::string_view(file.data(), body_len)) != stored_checksum) {
    return reject("content checksum mismatch (torn or corrupted journal)");
  }

  // Header.
  if (lines[0] != kMagic) return reject("unrecognised journal magic/version");
  {
    const auto tokens = split_tokens(lines[1]);
    std::uint64_t stored_request = 0;
    if (tokens.size() != 2 || tokens[0] != "request" ||
        !parse_hex_u64(tokens[1], stored_request)) {
      return reject("malformed request line");
    }
    if (stored_request != request_hash_) {
      return reject("request hash mismatch: journal belongs to a different sweep (have " +
                    to_hex_u64(stored_request) + ", want " + to_hex_u64(request_hash_) + ")");
    }
  }
  {
    const auto tokens = split_tokens(lines[2]);
    std::size_t stored_trials = 0;
    if (tokens.size() != 2 || tokens[0] != "trials" || !parse_size(tokens[1], stored_trials)) {
      return reject("malformed trials line");
    }
    if (stored_trials != trials_) return reject("trial-count mismatch");
  }
  {
    const auto tokens = split_tokens(lines[3]);
    std::size_t stored_chunk = 0;
    if (tokens.size() != 2 || tokens[0] != "chunk_size" || !parse_size(tokens[1], stored_chunk)) {
      return reject("malformed chunk_size line");
    }
    if (stored_chunk != chunk_size_) return reject("chunk-size mismatch");
  }

  const std::size_t num_chunks = trials_ == 0 ? 0 : (trials_ - 1) / chunk_size_ + 1;
  std::vector<bool> seen(num_chunks, false);

  // Chunk blocks: lines[4 .. size-2].
  std::size_t i = 4;
  const std::size_t stop = lines.size() - 1;
  while (i < stop) {
    auto tokens = split_tokens(lines[i]);
    if (tokens.size() != 2 || tokens[0] != "chunk") return reject("expected chunk line");
    JournalChunk chunk;
    if (!parse_size(tokens[1], chunk.index)) return reject("malformed chunk index");
    if (chunk.index >= num_chunks) return reject("chunk index out of range");
    if (seen[chunk.index]) return reject("duplicate chunk index");
    ++i;

    std::string core_error;
    if (!decode_stats_core(lines, i, stop, chunk.stats, core_error)) {
      return reject(std::move(core_error));
    }

    if (i >= stop) return reject("truncated chunk block");
    tokens = split_tokens(lines[i]);
    std::size_t end_index = 0;
    if (tokens.size() != 2 || tokens[0] != "end" || !parse_size(tokens[1], end_index) ||
        end_index != chunk.index) {
      return reject("malformed chunk end line");
    }
    ++i;

    seen[chunk.index] = true;
    result.chunks.push_back(std::move(chunk));
  }

  std::sort(result.chunks.begin(), result.chunks.end(),
            [](const JournalChunk& a, const JournalChunk& b) { return a.index < b.index; });
  result.status = JournalLoadResult::Status::kValid;
  return result;
}

}  // namespace beepmis::harness
