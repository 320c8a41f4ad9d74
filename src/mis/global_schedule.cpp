#include "mis/global_schedule.hpp"

#include <stdexcept>

#include "mis/global_schedule_batch.hpp"

namespace beepmis::mis {

GlobalScheduleMis::GlobalScheduleMis(std::unique_ptr<Schedule> schedule)
    : schedule_(std::move(schedule)) {
  if (!schedule_) throw std::invalid_argument("GlobalScheduleMis: null schedule");
}

std::unique_ptr<sim::BatchProtocol> GlobalScheduleMis::make_batch_protocol() const {
  // No typeid guard needed: the class is final, so no subclass can inherit
  // this override with changed behaviour.
  return std::make_unique<BatchGlobalScheduleMis>(schedule_);
}

void GlobalScheduleMis::on_reset(const graph::Graph& /*g*/,
                                 support::Xoshiro256StarStar& /*rng*/) {}

double GlobalScheduleMis::beep_probability(graph::NodeId /*v*/, std::size_t round) const {
  return schedule_->probability(round);
}

GlobalScheduleMis make_global_sweep_mis() {
  return GlobalScheduleMis(std::make_unique<SweepSchedule>());
}

GlobalScheduleMis make_global_increasing_mis(std::size_t max_degree, std::size_t n) {
  return GlobalScheduleMis(std::make_unique<IncreasingSchedule>(max_degree, n));
}

}  // namespace beepmis::mis
