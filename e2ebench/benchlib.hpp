// The end-to-end benchmark's own arithmetic: sample statistics, the span
// recorder of the traced run, and the failed-request ledger.  Header-only
// and free of the library, so selftest.cpp can pin every rule without a
// workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Sample statistics ------------------------------------------------------

/// Median (mean of the two middle values for an even count).  Throws on
/// an empty sample: a metric with no sample has no value.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Fewest samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile q in (0.5, 1): the value at rank ceil(q*n).
/// Refused (nullopt) when fewer than kMinBeyond samples lie beyond that
/// rank, so p90 needs at least 100 samples.
[[nodiscard]] inline std::optional<double> tail_percentile(std::vector<double> v, double q) {
  if (!(q > 0.5 && q < 1.0)) throw std::invalid_argument("tail_percentile: q outside (0.5, 1)");
  const std::size_t n = v.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
};

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (method "exclusive"), so the benchmark's own spread figures agree with
/// a reader who recomputes them in Python.  Needs at least two samples.
[[nodiscard]] inline Quartiles quartiles(std::vector<double> v) {
  const std::size_t ld = v.size();
  if (ld < 2) throw std::invalid_argument("quartiles need at least two samples");
  std::sort(v.begin(), v.end());
  const std::size_t m = ld + 1;
  double q[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

// --- Spans ------------------------------------------------------------------

/// One timed call into a layer.  `parent` is the index of the span that
/// caused it (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  long parent = -1;
  long request = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.  Children may overlap each other (parallel
/// work) and may stick out of the parent; only their union inside the
/// parent's interval is subtracted.
[[nodiscard]] inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::invalid_argument("span parent out of range: " + s.name);
    }
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, cursor = lo;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// In-memory span recorder.  Disabled, it records nothing and every span
/// id is -1, so the untraced run executes the same calls without the
/// bookkeeping.  Thread-safe: client threads and worker threads record
/// into one tracer.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  long begin(std::string name, long parent, long request) {
    if (!enabled_) return -1;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(m_);
    spans_.push_back({std::move(name), t, t, parent, request});
    return static_cast<long>(spans_.size() - 1);
  }

  void end(long id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(m_);
    spans_.at(static_cast<std::size_t>(id)).end_ns = t;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(m_);
    return spans_;
  }

 private:
  bool enabled_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, long parent, long request)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, request)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] long id() const { return id_; }

 private:
  Tracer& tracer_;
  long id_;
};

// --- Failed-request accounting ----------------------------------------------

/// Every request the benchmark issues, and which of them failed a check.
/// A request that fails several checks counts once; every reason is kept.
class Ledger {
 public:
  /// Registers one attempted request and returns its id.
  std::size_t add() {
    const std::lock_guard<std::mutex> lock(m_);
    return attempted_++;
  }

  void fail(std::size_t id, const std::string& reason) {
    const std::lock_guard<std::mutex> lock(m_);
    if (id >= attempted_) throw std::out_of_range("Ledger::fail: unknown request id");
    failed_.insert(id);
    reasons_.push_back("request " + std::to_string(id) + ": " + reason);
  }

  [[nodiscard]] std::size_t attempted() const {
    const std::lock_guard<std::mutex> lock(m_);
    return attempted_;
  }
  [[nodiscard]] std::size_t failed() const {
    const std::lock_guard<std::mutex> lock(m_);
    return failed_.size();
  }
  /// failed ÷ attempted (0 before any request).
  [[nodiscard]] double failed_fraction() const {
    const std::lock_guard<std::mutex> lock(m_);
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_.size()) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] std::vector<std::string> reasons() const {
    const std::lock_guard<std::mutex> lock(m_);
    return reasons_;
  }

 private:
  mutable std::mutex m_;
  std::size_t attempted_ = 0;
  std::set<std::size_t> failed_;
  std::vector<std::string> reasons_;
};

}  // namespace e2ebench
