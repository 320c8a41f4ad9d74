// LaneBlock pins: the AVX-512 lane-vector draw and feedback must give the
// per-lane reference's bits exactly — the same fire masks, the same final
// stream states and the same exponents — for every lane count, live mask
// and exponent, including the endpoints (k >= 53 below the draw
// granularity, the 1074/1075 underflow edge, the k_min floor).  Hosts
// without AVX-512 skip, naming the missing feature; the kernels then run
// the reference itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "support/lane_block.hpp"
#include "support/rng.hpp"

namespace beepmis {
namespace {

using support::LaneBlock;
using support::Xoshiro256StarStar;

#define SKIP_WITHOUT_LANE_BLOCK()                                                   \
  if (!LaneBlock::supported()) {                                                    \
    GTEST_SKIP() << "host lacks " << LaneBlock::missing_feature()                   \
                 << "; the kernels use the per-lane reference";                     \
  }

const unsigned kLaneCounts[] = {1, 7, 8, 9, 36, 63, 64};
const std::uint32_t kEdgeExponents[] = {0, 1, 52, 53, 54, 64, 1074, 1075, 1076, 65535};

std::uint64_t lane_mask(unsigned lanes) {
  return lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
}

/// Live masks for a `lanes`-lane batch: empty, full, every single bit,
/// byte-sparse patterns and random ones.
std::vector<std::uint64_t> live_masks(unsigned lanes, Xoshiro256StarStar& rng) {
  const std::uint64_t all = lane_mask(lanes);
  std::vector<std::uint64_t> masks = {0, all};
  for (unsigned l = 0; l < lanes; ++l) masks.push_back(std::uint64_t{1} << l);
  for (const std::uint64_t sparse :
       {0x00ff00ff00ff00ffULL, 0xff00ff00ff00ff00ULL, 0x0101010101010101ULL,
        0x8000000000000080ULL, 0x0000ff000000ff00ULL}) {
    masks.push_back(sparse & all);
  }
  for (int i = 0; i < 16; ++i) masks.push_back(rng() & all);
  for (int i = 0; i < 4; ++i) masks.push_back(rng() & rng() & all);
  return masks;
}

/// Modular inverse of an odd 64-bit value (Newton iteration).
constexpr std::uint64_t inverse(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

/// A state whose next xoshiro256** output is exactly `out` (the output
/// depends on word 1 only: rotl(s1 * 5, 7) * 9).
Xoshiro256StarStar state_with_output(std::uint64_t out, std::uint64_t filler) {
  const std::uint64_t rotated = out * inverse(9);
  const std::uint64_t s1 = ((rotated >> 7) | (rotated << 57)) * inverse(5);
  Xoshiro256StarStar rng;
  rng.set_state({filler | 1, s1, filler * 3 + 7, filler ^ 0x5555});
  return rng;
}

/// Runs one draw on both paths from the same states and compares the fire
/// mask and every lane's final state.
template <typename K>
void expect_draw_matches(std::vector<Xoshiro256StarStar> rngs, const std::vector<K>& k,
                         std::uint64_t live, std::uint32_t cap, const std::string& what) {
  const unsigned lanes = static_cast<unsigned>(rngs.size());
  LaneBlock block;
  for (unsigned l = 0; l < lanes; ++l) block.load(l, rngs[l]);
  std::uint64_t fire = 0;
  if constexpr (sizeof(K) == 2) {
    fire = block.draw_pow2(k.data(), live);
  } else {
    fire = block.draw_pow2(k.data(), live, cap);
  }
  std::vector<Xoshiro256StarStar> simd = rngs;
  for (unsigned l = 0; l < lanes; ++l) block.store(l, simd[l]);

  std::uint64_t want = 0;
  for (unsigned l = 0; l < lanes; ++l) {
    if (!((live >> l) & 1u)) continue;
    const std::uint32_t kl = std::min<std::uint32_t>(k[l], cap);
    want |= static_cast<std::uint64_t>(rngs[l].bernoulli_pow2(kl)) << l;
  }
  ASSERT_EQ(fire, want) << what;
  for (unsigned l = 0; l < lanes; ++l) {
    ASSERT_EQ(simd[l], rngs[l]) << what << " lane " << l;
  }
}

TEST(LaneBlock, SupportNamesMissingFeature) {
  EXPECT_EQ(LaneBlock::supported(), LaneBlock::missing_feature().empty());
}

TEST(LaneBlock, DrawMatchesPerLaneReference) {
  SKIP_WITHOUT_LANE_BLOCK();
  Xoshiro256StarStar meta(0x1a7eb10c);
  for (const unsigned lanes : kLaneCounts) {
    for (const std::uint64_t live : live_masks(lanes, meta)) {
      std::vector<Xoshiro256StarStar> rngs;
      for (unsigned l = 0; l < lanes; ++l) rngs.push_back(meta.split(l));
      // Exactly `lanes` exponents, so a read past the node's entries would
      // show under AddressSanitizer.
      std::vector<std::uint16_t> k16(lanes);
      std::vector<std::uint32_t> k32(lanes);
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint32_t edge = kEdgeExponents[(l + live) % std::size(kEdgeExponents)];
        const std::uint32_t small = static_cast<std::uint32_t>(meta.below(4));
        k16[l] = static_cast<std::uint16_t>(l % 3 == 0 ? edge : small);
        k32[l] = l % 3 == 0 ? edge + (l % 2 ? 70000u : 0u) : small;
      }
      const std::string what =
          "lanes " + std::to_string(lanes) + " live " + std::to_string(live);
      // Several steps per mask, so the stepped states feed later draws.
      for (int step = 0; step < 4; ++step) {
        expect_draw_matches(rngs, k16, live, UINT32_MAX, what + " u16");
        expect_draw_matches(rngs, k32, live, 1074, what + " u32 capped");
        LaneBlock block;
        for (unsigned l = 0; l < lanes; ++l) block.load(l, rngs[l]);
        (void)block.draw_pow2(k16.data(), live);
        for (unsigned l = 0; l < lanes; ++l) block.store(l, rngs[l]);
      }
    }
  }
}

TEST(LaneBlock, DrawMatchesReferenceAtMantissaEdges) {
  // Random outputs almost never have a mantissa below 2^-52, so the
  // k >= 53 and 1074/1075 branches need crafted states: lane l's next
  // output is chosen so its 53-bit mantissa sits on or next to the
  // threshold 2^(53-k) of its exponent.
  SKIP_WITHOUT_LANE_BLOCK();
  for (const unsigned lanes : kLaneCounts) {
    for (const std::uint32_t k : kEdgeExponents) {
      const std::uint64_t top = (std::uint64_t{1} << 53) - 1;
      const std::uint64_t threshold = k < 53 ? std::uint64_t{1} << (53 - k) : 1;
      const std::uint64_t mantissas[] = {0, 1, threshold - 1, std::min(threshold, top), top};
      std::vector<Xoshiro256StarStar> rngs;
      std::vector<std::uint16_t> k16(lanes, static_cast<std::uint16_t>(k));
      std::vector<std::uint32_t> k32(lanes, k);
      for (unsigned l = 0; l < lanes; ++l) {
        const std::uint64_t m = mantissas[l % std::size(mantissas)];
        rngs.push_back(state_with_output((m << 11) | (l & 0x7ffu), l + 1));
        ASSERT_EQ(Xoshiro256StarStar(rngs.back())() >> 11, m);
      }
      const std::string what = "lanes " + std::to_string(lanes) + " k " + std::to_string(k);
      Xoshiro256StarStar meta(k * 131 + lanes);
      for (const std::uint64_t live : live_masks(lanes, meta)) {
        expect_draw_matches(rngs, k16, live, UINT32_MAX, what + " u16");
        expect_draw_matches(rngs, k32, live, 1074, what + " u32 capped");
        expect_draw_matches(rngs, k32, live, UINT32_MAX, what + " u32 uncapped");
      }
    }
  }
}

TEST(LaneBlock, FeedbackMatchesPerLaneReference) {
  SKIP_WITHOUT_LANE_BLOCK();
  Xoshiro256StarStar meta(0xfeedb0c);
  for (const unsigned lanes : kLaneCounts) {
    for (const std::uint16_t k_min : {std::uint16_t{0}, std::uint16_t{1},
                                      std::uint16_t{2}, std::uint16_t{53}}) {
      const std::uint32_t near_floor[] = {k_min, k_min + 1u, k_min + 2u,
                                          k_min > 0 ? k_min - 1u : 0u};
      for (const std::uint64_t live : live_masks(lanes, meta)) {
        for (const std::uint64_t heard : {std::uint64_t{0}, ~std::uint64_t{0}, meta(),
                                          meta(), ~live}) {
          std::vector<std::uint16_t> k(lanes);
          for (unsigned l = 0; l < lanes; ++l) {
            const std::uint32_t value =
                l % 2 == 0 ? kEdgeExponents[(l / 2 + heard) % std::size(kEdgeExponents)]
                           : near_floor[(l / 2 + live) % std::size(near_floor)];
            k[l] = static_cast<std::uint16_t>(value);
          }
          std::vector<std::uint16_t> want = k;
          LaneBlock::feedback_pow2_reference(want.data(), live, heard, k_min);
          LaneBlock::feedback_pow2(k.data(), live, heard, k_min);
          ASSERT_EQ(k, want) << "lanes " << lanes << " k_min " << k_min << " live "
                             << live << " heard " << heard;
        }
      }
    }
  }
}

TEST(LaneBlock, FeedbackReferenceRule) {
  // The reference itself, on one lane each way: heard -> +1, silence ->
  // -1 floored at k_min, 1075 sticky both ways, dead lanes untouched.
  std::vector<std::uint16_t> k = {5, 5, 1, 1075, 1075, 9};
  const std::uint64_t live = 0b011111;
  const std::uint64_t heard = 0b001001;
  LaneBlock::feedback_pow2_reference(k.data(), live, heard, 1);
  EXPECT_EQ(k, (std::vector<std::uint16_t>{6, 4, 1, 1075, 1075, 9}));
}

}  // namespace
}  // namespace beepmis
