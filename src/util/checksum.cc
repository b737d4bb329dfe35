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
// The 512-bit kernel's: four 512-bit lanes fold 16 blocks ahead, and a
// lane's four blocks fold onto its last one.
constexpr uint64_t kFold16Lo = 0x11542778A;  // n = 16*128 + 32
constexpr uint64_t kFold16Hi = 0x1322D1430;  // n = 16*128 - 32
constexpr uint64_t kFold3Lo = 0x03DB1ECDC;   // n = 3*128 + 32
constexpr uint64_t kFold3Hi = 0x174359406;   // n = 3*128 - 32
constexpr uint64_t kFold2Lo = 0x0F1DA05AA;   // n = 2*128 + 32
constexpr uint64_t kFold2Hi = 0x15A546366;   // n = 2*128 - 32
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

// Folds the remaining 16-byte blocks (length % 16 == 0) into the lane
// `x`, reduces it to 64 bits and Barrett-reduces that to the 32-bit
// register. Shared by both folding kernels, and inlined into each: as a
// call from the 512-bit kernel its SSE encoding would run with the upper
// vector state dirty, which cost more than the whole 512-bit fold.
HJ_CLMUL_TARGET inline __attribute__((always_inline)) uint32_t
FoldTailAndReduce(__m128i x, const uint8_t* bytes, size_t length) {
  const __m128i k1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
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

// Advances the register over `length` bytes, where length >= 64 and
// length % 16 == 0. Four 128-bit lanes fold forward over each 64-byte
// block, then into one lane for FoldTailAndReduce.
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
  return FoldTailAndReduce(x, bytes, length);
}

#define HJ_VCLMUL_TARGET \
  __attribute__((target("pclmul,sse4.1,avx512f,vpclmulqdq")))

HJ_VCLMUL_TARGET inline __m512i Load64(const uint8_t* p) {
  return _mm512_loadu_si512(p);
}

// The 512-bit Fold: each 128-bit block of `lane` folds forward by the
// distance of the pair of constants in its own 128 bits of `k`, and
// `next` is XORed in (0x96 is the three-way XOR).
HJ_VCLMUL_TARGET inline __m512i Fold512(__m512i lane, __m512i k,
                                        __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(lane, k, 0x00),
                                   _mm512_clmulepi64_epi128(lane, k, 0x11),
                                   next, 0x96);
}

// The same constant pair in each 128-bit block. Built with set_epi64
// rather than a broadcast: gcc 12's broadcast, extract and cast
// intrinsics start from an undefined vector and trip -Wuninitialized.
HJ_VCLMUL_TARGET inline __m512i FoldConstants(uint64_t hi, uint64_t lo) {
  return _mm512_set_epi64(int64_t(hi), int64_t(lo), int64_t(hi), int64_t(lo),
                          int64_t(hi), int64_t(lo), int64_t(hi),
                          int64_t(lo));
}

// 128-bit block I of `lane` (the all-ones mask keeps every dword).
template <int I>
HJ_VCLMUL_TARGET inline __m128i Block(__m512i lane) {
  return _mm512_maskz_extracti32x4_epi32(0xF, lane, I);
}

// ClmulUpdate four times wider, for length >= 256 and length % 16 == 0.
// Four 512-bit lanes (sixteen 128-bit blocks) fold forward over each
// 256-byte block; the lanes fold into one, which absorbs the remaining
// 64-byte blocks; its four 128-bit blocks fold onto the last one (by
// 3, 2 and 1 blocks), and FoldTailAndReduce finishes.
HJ_VCLMUL_TARGET uint32_t VclmulUpdate(uint32_t crc, const uint8_t* bytes,
                                       size_t length) {
  __m512i l0 = _mm512_xor_si512(Load64(bytes),
                                _mm512_maskz_set1_epi32(1, int(crc)));
  __m512i l1 = Load64(bytes + 64);
  __m512i l2 = Load64(bytes + 128);
  __m512i l3 = Load64(bytes + 192);
  bytes += 256;
  length -= 256;

  const __m512i k16 = FoldConstants(kFold16Hi, kFold16Lo);
  for (; length >= 256; bytes += 256, length -= 256) {
    l0 = Fold512(l0, k16, Load64(bytes));
    l1 = Fold512(l1, k16, Load64(bytes + 64));
    l2 = Fold512(l2, k16, Load64(bytes + 128));
    l3 = Fold512(l3, k16, Load64(bytes + 192));
  }

  const __m512i k4 = FoldConstants(kFold4Hi, kFold4Lo);
  __m512i x = Fold512(l0, k4, l1);
  x = Fold512(x, k4, l2);
  x = Fold512(x, k4, l3);
  for (; length >= 64; bytes += 64, length -= 64) {
    x = Fold512(x, k4, Load64(bytes));
  }

  // Blocks 0-2 fold by 3, 2 and 1 blocks onto block 3; the zero
  // constants leave block 3's own product out.
  const __m512i k321 = _mm512_set_epi64(
      0, 0, int64_t(kFold1Hi), int64_t(kFold1Lo), int64_t(kFold2Hi),
      int64_t(kFold2Lo), int64_t(kFold3Hi), int64_t(kFold3Lo));
  const __m512i folded = Fold512(x, k321, _mm512_setzero_si512());
  const __m128i y =
      _mm_xor_si128(_mm_xor_si128(Block<0>(folded), Block<1>(folded)),
                    _mm_xor_si128(Block<2>(folded), Block<3>(x)));
  return FoldTailAndReduce(y, bytes, length);
}

bool DetectClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

bool DetectVclmul() {
  __builtin_cpu_init();
  return DetectClmul() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("vpclmulqdq");
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

bool VclmulSupported() {
#if HJ_CRC32_HAS_CLMUL
  static const bool supported = DetectVclmul();
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

uint32_t Crc32Vclmul(const void* data, size_t length, uint32_t seed) {
#if HJ_CRC32_HAS_CLMUL
  if (length >= 256) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    const size_t bulk = length & ~size_t{15};
    const uint32_t crc = VclmulUpdate(~seed, bytes, bulk);
    return ~TableUpdate(crc, bytes + bulk, length - bulk);
  }
#endif
  return Crc32Clmul(data, length, seed);
}

}  // namespace internal_checksum

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  using Kernel = uint32_t (*)(const void*, size_t, uint32_t);
  static const Kernel kernel = internal_checksum::VclmulSupported()
                                   ? internal_checksum::Crc32Vclmul
                               : internal_checksum::ClmulSupported()
                                   ? internal_checksum::Crc32Clmul
                                   : internal_checksum::Crc32Portable;
  return kernel(data, length, seed);
}

}  // namespace hashjoin
