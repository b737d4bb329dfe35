#ifndef HASHJOIN_UTIL_CHECKSUM_H_
#define HASHJOIN_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace hashjoin {

/// CRC32 (reflected, polynomial 0xEDB88320) over `length` bytes.
///
/// The `seed` parameter chains calls: pass a previous result to extend
/// the checksum over a discontiguous byte range.
/// Crc32(a+b) == Crc32(b, Crc32(a)); the empty range returns `seed`.
///
/// Used as the page-integrity check of the fault-tolerant I/O path:
/// the buffer manager sums every page on write and checks every read,
/// turning torn pages and bit rot into detected (and usually retried)
/// errors instead of silent corruption.
///
/// Kernel, chosen once at the first call: VPCLMULQDQ folding over four
/// 512-bit lanes when the CPU has VPCLMULQDQ and AVX-512F; else PCLMULQDQ
/// folding (Gopal et al., Intel 2009) when it has PCLMUL and SSE4.1; else
/// a byte table. Same values every way: the IEEE polynomial stays (not
/// CRC32C), so stored CRCs hold.
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

namespace internal_checksum {

/// The byte-at-a-time table path on its own.
uint32_t Crc32Portable(const void* data, size_t length, uint32_t seed = 0);

/// True when this CPU can run Crc32Clmul (what Crc32 dispatches on).
bool ClmulSupported();

/// The carry-less-multiply path on its own. Requires ClmulSupported().
uint32_t Crc32Clmul(const void* data, size_t length, uint32_t seed = 0);

/// True when this CPU can run Crc32Vclmul (VPCLMULQDQ and AVX-512F).
bool VclmulSupported();

/// The 512-bit carry-less-multiply path on its own (ranges under 256
/// bytes take Crc32Clmul). Requires VclmulSupported().
uint32_t Crc32Vclmul(const void* data, size_t length, uint32_t seed = 0);

}  // namespace internal_checksum

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_CHECKSUM_H_
