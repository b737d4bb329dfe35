#ifndef HASHJOIN_HASH_HASH_TABLE_H_
#define HASHJOIN_HASH_HASH_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/aligned.h"
#include "util/bitops.h"

namespace hashjoin {

/// One entry of a bucket's hash-cell array: the memoized 4-byte hash code
/// (a cheap filter before the real key comparison) and the build tuple
/// pointer. Exactly the paper's "hash cell" (Figure 2).
struct HashCell {
  uint32_t hash = 0;
  uint32_t reserved = 0;  // alignment padding, keeps cells 16 bytes
  const uint8_t* tuple = nullptr;
};
static_assert(sizeof(HashCell) == 16);

/// A hash bucket header (Figure 2): holds one inline hash cell — so a
/// bucket with a single tuple needs no extra memory reference — plus the
/// pointer/size of a dynamically grown hash-cell array for the rest.
/// `owner` supports the prefetching kernels' read-write conflict
/// protocols: 0 means free; group prefetching sets it to a sentinel busy
/// mark, software-pipelined prefetching stores 1 + the state-array index
/// of the in-flight inserting tuple (§4.4, §5.3).
struct BucketHeader {
  uint32_t hash = 0;             // inline cell: hash code
  uint32_t count = 0;            // total tuples in this bucket
  const uint8_t* tuple = nullptr;  // inline cell: build tuple
  HashCell* array = nullptr;     // cells for tuples 2..count
  uint32_t capacity = 0;         // allocated entries in `array`
  uint32_t owner = 0;            // conflict-protocol field (see above)
};
static_assert(sizeof(BucketHeader) == 32);

/// The paper's in-memory join-phase hash table: an array of bucket
/// headers and per-bucket cell arrays carved from an arena. This improves
/// on chained bucket hashing by replacing linked lists with arrays,
/// avoiding pointer chasing (§3 footnote 3).
///
/// The prefetching kernels intentionally access `buckets()` and
/// `GrowArray()` directly: their code stages interleave partial hash
/// table visits of many tuples, which no encapsulated Insert()/Probe()
/// call could express. The encapsulated methods below are the reference
/// implementation used by the baseline kernels and by tests as an oracle.
class HashTable {
 public:
  /// Creates a table with `num_buckets` (1 to 2^32 - 1) buckets. The
  /// GRACE driver picks num_buckets relatively prime to the partition
  /// count (§7.1).
  explicit HashTable(uint64_t num_buckets);

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  uint64_t num_buckets() const { return bucket_of_.divisor(); }
  uint64_t num_tuples() const { return num_tuples_; }

  /// Bucket number: hash % num_buckets(), without a divide (FastMod32).
  uint64_t BucketIndex(uint32_t hash) const { return bucket_of_(hash); }
  BucketHeader* bucket(uint64_t index) { return &buckets_[index]; }
  const BucketHeader* bucket(uint64_t index) const {
    return &buckets_[index];
  }

  /// Reference insert (baseline kernels / test oracle).
  void Insert(uint32_t hash, const uint8_t* tuple);

  /// Reference probe: invokes f(build_tuple) for every cell whose hash
  /// code equals `hash`. Callers still compare full keys.
  template <typename F>
  void Probe(uint32_t hash, F&& f) const {
    const BucketHeader* b = bucket(BucketIndex(hash));
    if (b->count == 0) return;
    if (b->hash == hash) f(b->tuple);
    for (uint32_t i = 0; i + 1 < b->count; ++i) {
      if (b->array[i].hash == hash) f(b->array[i].tuple);
    }
  }

  /// Ensures the bucket's cell array can hold one more cell; returns the
  /// (possibly moved) array. Exposed for the prefetching kernels.
  HashCell* EnsureArrayCapacity(BucketHeader* b);

  /// Appends a cell to a bucket that already holds its inline cell.
  /// Callers guarantee b->count >= 1.
  void AppendCell(BucketHeader* b, uint32_t hash, const uint8_t* tuple);

  /// Counts tuples by walking every bucket (test invariant helper).
  uint64_t CountTuplesSlow() const;

  /// Approximate bytes a table of `tuples` tuples will occupy; the GRACE
  /// driver uses this to size partitions against the memory budget.
  static uint64_t EstimateBytes(uint64_t tuples);

  /// Empties all buckets, retaining bucket array memory.
  void Reset();

  void BumpTupleCount() { ++num_tuples_; }

 private:
  HashCell* ArenaAlloc(uint32_t cells);

  FastMod32 bucket_of_;  // hash -> bucket number; holds num_buckets
  AlignedBuffer<BucketHeader> buckets_;
  std::vector<AlignedBuffer<HashCell>> arena_blocks_;
  uint64_t arena_used_ = 0;      // cells used in the current block
  uint64_t arena_capacity_ = 0;  // cells in the current block
  uint64_t num_tuples_ = 0;
};

}  // namespace hashjoin

#endif  // HASHJOIN_HASH_HASH_TABLE_H_
