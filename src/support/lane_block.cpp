#include "support/lane_block.hpp"

#include <bit>
#include <limits>

#if defined(__x86_64__)
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's AVX-512 intrinsics seed their results from an intentionally
// undefined vector, which -Wmaybe-uninitialized misreports.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#else
#include <immintrin.h>
#endif
#define BEEPMIS_LANE_BLOCK_X86 1
#endif

namespace beepmis::support {

std::string_view LaneBlock::missing_feature() noexcept {
#ifdef BEEPMIS_LANE_BLOCK_X86
  static const std::string_view missing = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx512f")) return std::string_view("avx512f");
    if (!__builtin_cpu_supports("avx512bw")) return std::string_view("avx512bw");
    if (!__builtin_cpu_supports("avx512vl")) return std::string_view("avx512vl");
    return std::string_view();
  }();
  return missing;
#else
  return "avx512f (not an x86 build)";
#endif
}

bool LaneBlock::supported() noexcept { return missing_feature().empty(); }

void LaneBlock::load(unsigned lane, const Xoshiro256StarStar& rng) noexcept {
  for (unsigned i = 0; i < 4; ++i) s_[i][lane] = rng.state()[i];
}

void LaneBlock::store(unsigned lane, Xoshiro256StarStar& rng) const noexcept {
  rng.set_state({s_[0][lane], s_[1][lane], s_[2][lane], s_[3][lane]});
}

namespace {

using States = std::uint64_t[4][LaneBlock::kLanes];

/// The portable body: Xoshiro256StarStar::bernoulli_pow2 on each live
/// lane's block state.  `k` is K[] and each exponent is clamped at `cap`.
template <typename K>
std::uint64_t draw_pow2_per_lane(States& s, const K* k, std::uint64_t live,
                                 std::uint32_t cap) noexcept {
  std::uint64_t fire = 0;
  for (std::uint64_t b = live; b != 0; b &= b - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(b));
    Xoshiro256StarStar rng;
    rng.set_state({s[0][l], s[1][l], s[2][l], s[3][l]});
    const unsigned kl = k[l] < cap ? k[l] : cap;
    fire |= static_cast<std::uint64_t>(rng.bernoulli_pow2(kl)) << l;
    for (unsigned i = 0; i < 4; ++i) s[i][l] = rng.state()[i];
  }
  return fire;
}

#ifdef BEEPMIS_LANE_BLOCK_X86

#define BEEPMIS_AVX512 [[gnu::target("avx512f,avx512bw,avx512vl")]]

/// One xoshiro256** step of the eight lanes [8g, 8g + 8) whose bits are set
/// in `m`, followed by the bernoulli_pow2 test against exponents `k`
/// (already widened to 64 bits).  Returns the fire mask of those lanes;
/// lanes outside `m` keep their state.
BEEPMIS_AVX512 inline __mmask8 step8(States& s, unsigned g, __mmask8 m, __m512i k) noexcept {
  const unsigned o = 8 * g;
  __m512i s0 = _mm512_load_si512(&s[0][o]);
  __m512i s1 = _mm512_load_si512(&s[1][o]);
  __m512i s2 = _mm512_load_si512(&s[2][o]);
  __m512i s3 = _mm512_load_si512(&s[3][o]);
  // result = rotl(s1 * 5, 7) * 9, with the multiplies as shift-adds
  // (AVX-512F has no 64-bit mullo without DQ).
  __m512i r = _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2));
  r = _mm512_rol_epi64(r, 7);
  r = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
  const __m512i t = _mm512_slli_epi64(s1, 17);
  s2 = _mm512_xor_si512(s2, s0);
  s3 = _mm512_xor_si512(s3, s1);
  s1 = _mm512_xor_si512(s1, s2);
  s0 = _mm512_xor_si512(s0, s3);
  s2 = _mm512_xor_si512(s2, t);
  s3 = _mm512_rol_epi64(s3, 45);
  _mm512_mask_store_epi64(&s[0][o], m, s0);
  _mm512_mask_store_epi64(&s[1][o], m, s1);
  _mm512_mask_store_epi64(&s[2][o], m, s2);
  _mm512_mask_store_epi64(&s[3][o], m, s3);
  // bernoulli_pow2: the 53-bit mantissa is below 2^-k iff its top 53 - k
  // bits are zero (all 53 once k >= 53), and never at k >= 1075.
  const __m512i mantissa = _mm512_srli_epi64(r, 11);
  const __m512i c53 = _mm512_set1_epi64(53);
  const __m512i shift = _mm512_sub_epi64(c53, _mm512_min_epu64(k, c53));
  const __mmask8 can_fire =
      _mm512_mask_cmplt_epu64_mask(m, k, _mm512_set1_epi64(LaneBlock::kZeroExponent));
  return _mm512_mask_cmpeq_epi64_mask(can_fire, _mm512_srlv_epi64(mantissa, shift),
                                      _mm512_setzero_si512());
}

BEEPMIS_AVX512 std::uint64_t draw_pow2_avx512(States& s, const std::uint16_t* k,
                                              std::uint64_t live) noexcept {
  std::uint64_t fire = 0;
  for (unsigned g = 0; g < LaneBlock::kLanes / 8; ++g) {
    const auto m = static_cast<__mmask8>(live >> (8 * g));
    if (!m) continue;
    // Masked load: no read past the node's live lanes.
    const __m512i kg = _mm512_cvtepu16_epi64(_mm_maskz_loadu_epi16(m, k + 8 * g));
    fire |= static_cast<std::uint64_t>(step8(s, g, m, kg)) << (8 * g);
  }
  return fire;
}

BEEPMIS_AVX512 std::uint64_t draw_pow2_avx512(States& s, const std::uint32_t* k,
                                              std::uint64_t live, std::uint32_t cap) noexcept {
  const __m512i capv = _mm512_set1_epi64(cap);
  std::uint64_t fire = 0;
  for (unsigned g = 0; g < LaneBlock::kLanes / 8; ++g) {
    const auto m = static_cast<__mmask8>(live >> (8 * g));
    if (!m) continue;
    const __m512i kg = _mm512_min_epu64(
        _mm512_cvtepu32_epi64(_mm256_maskz_loadu_epi32(m, k + 8 * g)), capv);
    fire |= static_cast<std::uint64_t>(step8(s, g, m, kg)) << (8 * g);
  }
  return fire;
}

BEEPMIS_AVX512 void feedback_pow2_avx512(std::uint16_t* k, std::uint64_t live,
                                         std::uint64_t heard, std::uint16_t k_min) noexcept {
  const __m512i one = _mm512_set1_epi16(1);
  const __m512i zero_exp = _mm512_set1_epi16(static_cast<short>(LaneBlock::kZeroExponent));
  const __m512i floor = _mm512_set1_epi16(static_cast<short>(k_min));
  for (unsigned h = 0; h < 2; ++h) {
    const auto m = static_cast<__mmask32>(live >> (32 * h));
    if (!m) continue;
    const auto heard32 = static_cast<__mmask32>(heard >> (32 * h));
    std::uint16_t* kh = k + 32 * h;
    __m512i kv = _mm512_maskz_loadu_epi16(m, kh);
    const __mmask32 movable = _mm512_mask_cmplt_epu16_mask(m, kv, zero_exp);
    const __mmask32 inc = movable & heard32;
    const __mmask32 dec = _mm512_mask_cmpgt_epu16_mask(movable & ~heard32, kv, floor);
    kv = _mm512_mask_add_epi16(kv, inc, kv, one);
    kv = _mm512_mask_sub_epi16(kv, dec, kv, one);
    _mm512_mask_storeu_epi16(kh, inc | dec, kv);
  }
}

#endif  // BEEPMIS_LANE_BLOCK_X86

}  // namespace

std::uint64_t LaneBlock::draw_pow2(const std::uint16_t* k, std::uint64_t live) noexcept {
#ifdef BEEPMIS_LANE_BLOCK_X86
  if (supported()) return draw_pow2_avx512(s_, k, live);
#endif
  return draw_pow2_per_lane(s_, k, live, std::numeric_limits<std::uint16_t>::max());
}

std::uint64_t LaneBlock::draw_pow2(const std::uint32_t* k, std::uint64_t live,
                                   std::uint32_t cap) noexcept {
#ifdef BEEPMIS_LANE_BLOCK_X86
  if (supported()) return draw_pow2_avx512(s_, k, live, cap);
#endif
  return draw_pow2_per_lane(s_, k, live, cap);
}

void LaneBlock::feedback_pow2(std::uint16_t* k, std::uint64_t live, std::uint64_t heard,
                              std::uint16_t k_min) noexcept {
#ifdef BEEPMIS_LANE_BLOCK_X86
  if (supported()) return feedback_pow2_avx512(k, live, heard, k_min);
#endif
  feedback_pow2_reference(k, live, heard, k_min);
}

}  // namespace beepmis::support
