// Synchronous LOCAL-model simulator with word-sized broadcasts.
//
// Classic MIS algorithms (Luby's, in particular) need richer communication
// than a beep: each node broadcasts a value to all neighbours every
// exchange.  This substrate models that: per exchange, every active node
// publishes a 64-bit value which all its neighbours can read in the react
// phase.  Message cost is tracked in bits (deg(v) * bits_per_message for
// each publish), so bit-complexity comparisons against the beeping model
// are possible (paper §5).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/result.hpp"
#include "support/rng.hpp"

namespace beepmis::sim {

struct LocalSimConfig {
  std::size_t max_rounds = 1u << 20;
  /// Cooperative cancellation deadline, as SimConfig::deadline_ns: checked
  /// against steady_now_ns() at every round boundary, throwing
  /// RunCancelled once exceeded; nullptr (the default) never cancels.  A
  /// runtime handle, not part of any request fingerprint.
  std::shared_ptr<const std::atomic<std::int64_t>> deadline_ns;
};

class LocalSimulator;

/// Exchange view for LOCAL-model protocols.
class LocalContext {
 public:
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] unsigned exchange() const noexcept { return exchange_; }

  /// See BeepContext::active_nodes() — compacted at round boundaries only.
  [[nodiscard]] const std::vector<graph::NodeId>& active_nodes() const noexcept {
    return *active_;
  }
  [[nodiscard]] bool is_active(graph::NodeId v) const {
    return status_->at(v) == NodeStatus::kActive;
  }
  [[nodiscard]] NodeStatus status(graph::NodeId v) const { return status_->at(v); }

  /// Value `w` published this exchange, or nullopt if `w` published nothing
  /// (was inactive or stayed silent).  Valid during react.
  [[nodiscard]] std::optional<std::uint64_t> value_of(graph::NodeId w) const {
    if (!(*published_)[w]) return std::nullopt;
    return (*values_)[w];
  }

  /// Emit-phase only: broadcast `value` (costing deg(v) * bits to send).
  void publish(graph::NodeId v, std::uint64_t value, unsigned bits = 64);
  /// React-phase only.
  void join_mis(graph::NodeId v);
  void deactivate(graph::NodeId v);

  [[nodiscard]] support::Xoshiro256StarStar& rng() noexcept { return *rng_; }

 private:
  friend class LocalSimulator;
  enum class Phase { kEmit, kReact };

  const graph::Graph* graph_ = nullptr;
  const std::vector<graph::NodeId>* active_ = nullptr;
  std::vector<NodeStatus>* status_ = nullptr;
  std::vector<std::uint64_t>* values_ = nullptr;
  std::vector<std::uint8_t>* published_ = nullptr;
  support::Xoshiro256StarStar* rng_ = nullptr;
  LocalSimulator* simulator_ = nullptr;
  std::size_t round_ = 0;
  unsigned exchange_ = 0;
  Phase phase_ = Phase::kEmit;
};

class LocalProtocol {
 public:
  virtual ~LocalProtocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual unsigned exchanges_per_round() const = 0;
  /// See BeepProtocol::reset — must fully (re)initialise per-run state;
  /// instances are reused across runs by the trial harness.
  virtual void reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) = 0;
  virtual void emit(LocalContext& ctx) = 0;
  virtual void react(LocalContext& ctx) = 0;
};

/// One instance may execute many runs; scratch state is reused across runs
/// and the graph can be rebound per run (see BeepSimulator for the
/// rationale — the trial runner amortises allocations this way).
class LocalSimulator {
 public:
  explicit LocalSimulator(const graph::Graph& g, LocalSimConfig config = {});
  /// The simulator stores a reference; a temporary graph would dangle.
  explicit LocalSimulator(graph::Graph&&, LocalSimConfig = {}) = delete;
  /// Unbound simulator: only usable through the graph-taking run overload.
  explicit LocalSimulator(LocalSimConfig config = {});

  [[nodiscard]] RunResult run(LocalProtocol& protocol, support::Xoshiro256StarStar rng);
  /// Rebinds to `g` and runs, reusing scratch buffers.  The caller must
  /// keep `g` alive for the duration of the call.
  [[nodiscard]] RunResult run(const graph::Graph& g, LocalProtocol& protocol,
                              support::Xoshiro256StarStar rng);
  /// A temporary graph would leave the simulator bound to a destroyed
  /// object (same trap the deleted rvalue constructor blocks).
  RunResult run(graph::Graph&&, LocalProtocol&, support::Xoshiro256StarStar) = delete;

 private:
  friend class LocalContext;

  const graph::Graph* graph_ = nullptr;
  LocalSimConfig config_;

  std::vector<NodeStatus> status_;
  std::vector<graph::NodeId> active_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint8_t> published_;
  std::vector<graph::NodeId> publishers_;  ///< set bits of published_
  std::uint64_t message_bits_ = 0;
};

}  // namespace beepmis::sim
