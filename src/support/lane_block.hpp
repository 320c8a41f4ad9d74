// AVX-512 lane-vector kernels for the bit-identical (kScalarOrder) batched
// path.
//
// A 64-lane kScalarOrder batch gives every lane its own xoshiro256**
// stream, and a node's per-lane Bernoulli draws are independent of each
// other: lane l's next output depends only on lane l's state.  The
// per-lane `for (b = live; b; b &= b - 1)` loops of the dyadic kernels
// can therefore run eight streams per 512-bit op without changing a
// single draw.  LaneBlock holds a structure-of-arrays copy of up to 64
// lane states for the duration of one intent emit and provides:
//
//  * draw_pow2 — for one node, Bernoulli(2^-k_l) for every live lane:
//    eight 8-lane xoshiro steps masked by the live byte, the same
//    integer shift/compare as Xoshiro256StarStar::bernoulli_pow2 on the
//    same single output, fire bits straight out of a compare mask.  Only
//    live lanes' states advance.
//  * feedback_pow2 — the dyadic local-feedback +-1 exponent update: two
//    32-lane masked 16-bit add/sub ops, with the k < 1075 sticky zero and
//    the k > k_min floor as compare masks.
//
// Both are bit-identical to the per-lane reference (bernoulli_pow2 per
// lane, feedback_pow2_reference below); tests/test_lane_block.cpp pins
// them to it.  The SIMD bodies need avx512f, avx512bw and avx512vl,
// compiled per function with [[gnu::target]]; the choice between them and
// the per-lane reference is made here, from supported() (checked once per
// process), so callers always call draw_pow2 and feedback_pow2.  Non-x86
// builds compile only the reference.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "support/rng.hpp"

namespace beepmis::support {

class LaneBlock {
 public:
  static constexpr unsigned kLanes = 64;
  /// Exponent at which bernoulli_pow2 never fires (2^-1075 underflows to
  /// 0.0); the dyadic feedback holds a lane there in both directions.
  static constexpr std::uint16_t kZeroExponent = 1075;

  /// True when the host CPU has avx512f, avx512bw and avx512vl (checked
  /// once per process), i.e. when the members below run the SIMD bodies.
  [[nodiscard]] static bool supported() noexcept;
  /// The first required feature the host lacks ("" when supported()).
  [[nodiscard]] static std::string_view missing_feature() noexcept;

  /// Copy lane `lane`'s stream state in / back out.
  void load(unsigned lane, const Xoshiro256StarStar& rng) noexcept;
  void store(unsigned lane, Xoshiro256StarStar& rng) const noexcept;

  /// Bit l set iff lane l is in `live` and lane l's stream, advanced by
  /// one output, fires bernoulli_pow2(k[l]).  Lanes outside `live` keep
  /// their state, and their k[l] is never read.
  [[nodiscard]] std::uint64_t draw_pow2(const std::uint16_t* k, std::uint64_t live) noexcept;
  /// As above with bernoulli_pow2(min(k[l], cap)).
  [[nodiscard]] std::uint64_t draw_pow2(const std::uint32_t* k, std::uint64_t live,
                                        std::uint32_t cap) noexcept;

  /// feedback_pow2_reference, 32 lanes per op when supported().
  static void feedback_pow2(std::uint16_t* k, std::uint64_t live, std::uint64_t heard,
                            std::uint16_t k_min) noexcept;

  /// The dyadic local-feedback rule on every lane l in `live`: heard ->
  /// k + 1, silence -> k - 1 floored at k_min, and kZeroExponent is
  /// sticky both ways.  Only k[l] of live lanes is read or written.
  static void feedback_pow2_reference(std::uint16_t* k, std::uint64_t live,
                                      std::uint64_t heard, std::uint16_t k_min) noexcept {
    for (std::uint64_t b = live; b != 0; b &= b - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(b));
      std::uint16_t& kl = k[l];
      // Branchless: heard is a coin flip per lane, so arithmetic on the
      // bit beats a mispredicting branch.
      const std::uint16_t h = static_cast<std::uint16_t>((heard >> l) & 1u);
      const std::uint16_t movable = static_cast<std::uint16_t>(kl < kZeroExponent);
      const std::uint16_t inc = static_cast<std::uint16_t>(h & movable);
      const std::uint16_t dec =
          static_cast<std::uint16_t>((h ^ 1u) & movable & (kl > k_min));
      kl = static_cast<std::uint16_t>(kl + inc - dec);
    }
  }

 private:
  /// s_[i][l] is word i of lane l's xoshiro256** state.
  alignas(64) std::uint64_t s_[4][kLanes] = {};
};

}  // namespace beepmis::support
