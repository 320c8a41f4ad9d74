#include "mis/exact_feedback.hpp"

#include <cmath>

#include "mis/exact_feedback_batch.hpp"

namespace beepmis::mis {

std::unique_ptr<sim::BatchProtocol> ExactLocalFeedbackMis::make_batch_protocol() const {
  return std::make_unique<BatchExactLocalFeedbackMis>();
}

void ExactLocalFeedbackMis::on_reset(const graph::Graph& g,
                                     support::Xoshiro256StarStar& /*rng*/) {
  exponent_.assign(g.node_count(), 1);  // n(0, v) = 1, i.e. p = 1/2
}

double ExactLocalFeedbackMis::beep_probability(graph::NodeId v,
                                               std::size_t /*round*/) const {
  // 2^{-n}; exponents beyond double range would round to 0, which is the
  // correct limiting behaviour (the node is silenced).
  return std::ldexp(1.0, -static_cast<int>(std::min<std::uint32_t>(exponent_[v], 1074)));
}

void ExactLocalFeedbackMis::on_feedback(graph::NodeId v, bool heard_beep,
                                        std::size_t /*round*/) {
  if (heard_beep) {
    ++exponent_[v];  // halve p
  } else if (exponent_[v] > 1) {
    --exponent_[v];  // double p, capped at 1/2 (n >= 1)
  }
}

}  // namespace beepmis::mis
