// Beeping MIS with globally scheduled probabilities (Afek et al.'s
// approach): all nodes beep with the same preset probability p_t at step t.
// Theorem 1 shows this class of algorithms is Ω(log² n) on the clique
// family no matter which schedule is chosen.
#pragma once

#include <memory>

#include "mis/schedule.hpp"
#include "mis/skeleton.hpp"

namespace beepmis::mis {

class GlobalScheduleMis final : public BeepingMisSkeleton {
 public:
  /// Takes ownership of the schedule.  The protocol's reported name is the
  /// schedule's name, so results are labelled by schedule.  Ownership is
  /// shared internally so batched kernels can outlive this instance (the
  /// trial runner materialises the kernel and discards the scalar
  /// protocol); schedules are immutable after construction, which makes the
  /// sharing thread-safe.
  explicit GlobalScheduleMis(std::unique_ptr<Schedule> schedule);

  [[nodiscard]] std::string_view name() const override { return schedule_->name(); }
  [[nodiscard]] const Schedule& schedule() const noexcept { return *schedule_; }

  /// Batched 64-lane kernel (BatchGlobalScheduleMis), sharing this
  /// protocol's schedule.  Never nullptr: the class is final and the
  /// skeleton's round structure is fully reproduced by the kernel.
  [[nodiscard]] std::unique_ptr<sim::BatchProtocol> make_batch_protocol() const override;

  /// Sharded single-run execution: the schedule is immutable and read by
  /// round only, so the hooks are trivially per-node safe.  No typeid
  /// guard needed — the class is final.
  [[nodiscard]] sim::ShardSupport shard_support() const override {
    return skeleton_shard_support();
  }

 protected:
  void on_reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) override;
  [[nodiscard]] double beep_probability(graph::NodeId v, std::size_t round) const override;

 private:
  std::shared_ptr<const Schedule> schedule_;
};

/// Convenience factories.
[[nodiscard]] GlobalScheduleMis make_global_sweep_mis();
[[nodiscard]] GlobalScheduleMis make_global_increasing_mis(std::size_t max_degree,
                                                           std::size_t n);

}  // namespace beepmis::mis
