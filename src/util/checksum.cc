#include "util/checksum.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HJ_CRC32_HAS_CLMUL 1
#else
#define HJ_CRC32_HAS_CLMUL 0
#endif

namespace hashjoin {
namespace {

struct Crc32Table {
  uint32_t entries[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[i] = c;
    }
  }
};

const Crc32Table& Table() {
  static const Crc32Table table;
  return table;
}

// Both kernels below work on the running register, i.e. the inverted
// CRC. The final inversion of one Crc32 call cancels against the
// initial inversion of the next, which is what makes chaining via
// `seed` work.
uint32_t TableUpdate(uint32_t crc, const uint8_t* bytes, size_t length) {
  const Crc32Table& table = Table();
  for (size_t i = 0; i < length; ++i) {
    crc = table.entries[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if HJ_CRC32_HAS_CLMUL

// Folding constants for the reflected polynomial 0xEDB88320, from
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009). Each kFold* is x^n mod P,
// written bit-reflected in 32 bits and shifted left by one.
constexpr uint64_t kFold4Lo = 0x154442BD4;   // n = 4*128 + 32
constexpr uint64_t kFold4Hi = 0x1C6E41596;   // n = 4*128 - 32
constexpr uint64_t kFold1Lo = 0x1751997D0;   // n = 128 + 32
constexpr uint64_t kFold1Hi = 0x0CCAA009E;   // n = 128 - 32
constexpr uint64_t kFold64 = 0x163CD6124;    // n = 64
// Barrett reduction: P itself and floor(x^64 / P), both bit-reflected
// over 33 bits.
constexpr uint64_t kPoly = 0x1DB710641;
constexpr uint64_t kQuotient = 0x1F7011641;

#define HJ_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

HJ_CLMUL_TARGET inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// A value congruent to lane * x^w mod P, for the distance w whose
// constant pair `k` holds; XOR it into the block w bits further on.
HJ_CLMUL_TARGET inline __m128i Fold(__m128i lane, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                       _mm_clmulepi64_si128(lane, k, 0x11));
}

// Advances the register over `length` bytes, where length >= 64 and
// length % 16 == 0. Four 128-bit lanes fold forward over each 64-byte
// block, then into one lane, which absorbs any remaining 16-byte
// blocks; the lane is then reduced to 64 bits and Barrett-reduced to
// the 32-bit register.
HJ_CLMUL_TARGET uint32_t ClmulUpdate(uint32_t crc, const uint8_t* bytes,
                                     size_t length) {
  __m128i l0 = _mm_xor_si128(Load16(bytes), _mm_cvtsi32_si128(int(crc)));
  __m128i l1 = Load16(bytes + 16);
  __m128i l2 = Load16(bytes + 32);
  __m128i l3 = Load16(bytes + 48);
  bytes += 64;
  length -= 64;

  const __m128i k4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
  for (; length >= 64; bytes += 64, length -= 64) {
    l0 = _mm_xor_si128(Fold(l0, k4), Load16(bytes));
    l1 = _mm_xor_si128(Fold(l1, k4), Load16(bytes + 16));
    l2 = _mm_xor_si128(Fold(l2, k4), Load16(bytes + 32));
    l3 = _mm_xor_si128(Fold(l3, k4), Load16(bytes + 48));
  }

  const __m128i k1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
  __m128i x = _mm_xor_si128(Fold(l0, k1), l1);
  x = _mm_xor_si128(Fold(x, k1), l2);
  x = _mm_xor_si128(Fold(x, k1), l3);
  for (; length >= 16; bytes += 16, length -= 16) {
    x = _mm_xor_si128(Fold(x, k1), Load16(bytes));
  }

  // 128 -> 64 bits: fold the low half onto the high half.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k1, 0x10));
  // 64 -> 32 bits, kept as a 64-bit value whose upper dword matters.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const __m128i k64 = _mm_set_epi64x(0, kFold64);
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));
  // Barrett: t = (x mod x^32) * floor(x^64 / P); x ^= (t mod x^32) * P.
  const __m128i barrett = _mm_set_epi64x(kQuotient, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return uint32_t(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool DetectClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // HJ_CRC32_HAS_CLMUL

}  // namespace

namespace internal_checksum {

uint32_t Crc32Portable(const void* data, size_t length, uint32_t seed) {
  return ~TableUpdate(~seed, static_cast<const uint8_t*>(data), length);
}

bool ClmulSupported() {
#if HJ_CRC32_HAS_CLMUL
  static const bool supported = DetectClmul();
  return supported;
#else
  return false;
#endif
}

uint32_t Crc32Clmul(const void* data, size_t length, uint32_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
#if HJ_CRC32_HAS_CLMUL
  if (length >= 64) {
    const size_t bulk = length & ~size_t{15};
    crc = ClmulUpdate(crc, bytes, bulk);
    bytes += bulk;
    length -= bulk;
  }
#endif
  return ~TableUpdate(crc, bytes, length);
}

}  // namespace internal_checksum

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  return internal_checksum::ClmulSupported()
             ? internal_checksum::Crc32Clmul(data, length, seed)
             : internal_checksum::Crc32Portable(data, length, seed);
}

}  // namespace hashjoin
