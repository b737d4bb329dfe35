#ifndef HASHJOIN_UTIL_BITOPS_H_
#define HASHJOIN_UTIL_BITOPS_H_

#include <cstdint>
#include <numeric>

namespace hashjoin {

/// True iff v is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Smallest power of two >= v (v must be >= 1 and representable).
constexpr uint64_t NextPowerOfTwo(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// The circular state array of a software-pipelined loop (§5.3): k
/// stages D iterations apart keep k*D elements in flight plus the one
/// being issued, and a power-of-two size lets a mask index the ring.
struct PipelineRing {
  uint64_t size;
  uint64_t mask;

  constexpr PipelineRing(uint64_t stages, uint64_t distance)
      : size(NextPowerOfTwo(stages * distance + 1)), mask(size - 1) {}

  /// The slot pipeline iteration `j` uses.
  constexpr uint64_t Slot(uint64_t j) const { return j & mask; }
};

/// log2 of a power of two.
constexpr uint32_t Log2(uint64_t v) {
  uint32_t r = 0;
  while (v > 1) {
    v >>= 1;
    ++r;
  }
  return r;
}

/// True iff a and b share no common factor (gcd == 1). The GRACE driver
/// requires the hash table size to be relatively prime to the number of
/// partitions so partition and bucket assignment don't correlate (paper
/// section 7.1).
constexpr bool RelativelyPrime(uint64_t a, uint64_t b) {
  return std::gcd(a, b) == 1;
}

/// Smallest value >= v that is relatively prime to m (and odd, to be a
/// decent modulus). Used to pick hash table sizes.
inline uint64_t NextRelativelyPrime(uint64_t v, uint64_t m) {
  if (v < 3) v = 3;
  if (v % 2 == 0) ++v;
  while (!RelativelyPrime(v, m)) v += 2;
  return v;
}

/// Rounds v up to a multiple of alignment (alignment must be a power of 2).
constexpr uint64_t RoundUp(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) & ~(alignment - 1);
}

/// x % d for a 32-bit x and a divisor 1 <= d < 2^32 fixed in advance,
/// with two multiplies instead of a divide (Lemire, Kaser and Kurz,
/// "Faster Remainder by Direct Computation", 2019). M = ceil(2^64 / d),
/// so the low 64 bits of M * x are the fractional part of x / d, and
/// that fraction times d, shifted down 64 bits, is the remainder: equal
/// to x % d for every 32-bit x and d. The default divisor is 1.
class FastMod32 {
 public:
  constexpr FastMod32() = default;
  explicit constexpr FastMod32(uint32_t d) : m_(~uint64_t{0} / d + 1), d_(d) {}

  constexpr uint32_t operator()(uint32_t x) const {
    const uint64_t fraction = m_ * x;
    return uint32_t((static_cast<unsigned __int128>(fraction) * d_) >> 64);
  }

  constexpr uint32_t divisor() const { return d_; }

 private:
  uint64_t m_ = 0;  // ceil(2^64 / d) mod 2^64: 0 for d = 1
  uint32_t d_ = 1;
};

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_BITOPS_H_
