#ifndef HASHJOIN_HASH_CHAINED_HASH_TABLE_H_
#define HASHJOIN_HASH_CHAINED_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "util/aligned.h"
#include "util/bitops.h"

namespace hashjoin {

/// A cell of a chained bucket: hash code, tuple pointer, and the next
/// pointer that makes the structure a linked list.
struct ChainedCell {
  uint32_t hash = 0;
  uint32_t reserved = 0;
  const uint8_t* tuple = nullptr;
  ChainedCell* next = nullptr;
};

/// Classic chained bucket hashing — the structure the paper's hash table
/// (Figure 2) deliberately improves upon (§3 footnote 3): every probe
/// chases a linked list, each hop a dependent memory reference whose
/// address is unknown until the previous cell arrives. Included as the
/// experimental contrast for the pointer-chasing problem: naive
/// prefetching cannot help it, and neither group nor software-pipelined
/// prefetching can pipeline *within* one chain.
class ChainedHashTable {
 public:
  /// `num_buckets` is 1 to 2^32 - 1.
  explicit ChainedHashTable(uint64_t num_buckets);

  ChainedHashTable(const ChainedHashTable&) = delete;
  ChainedHashTable& operator=(const ChainedHashTable&) = delete;

  uint64_t num_buckets() const { return bucket_of_.divisor(); }
  uint64_t num_tuples() const { return num_tuples_; }

  /// hash % num_buckets(), without a divide (FastMod32).
  uint64_t BucketIndex(uint32_t hash) const { return bucket_of_(hash); }
  ChainedCell* head(uint64_t index) { return heads_[index]; }
  const ChainedCell* head(uint64_t index) const { return heads_[index]; }

  /// Address of the bucket's head slot (for memory-model accounting).
  const ChainedCell* const* head_slot(uint64_t index) const {
    return &heads_[index];
  }

  /// Push-front insert (order within a bucket is immaterial).
  void Insert(uint32_t hash, const uint8_t* tuple);

  /// Invokes f(tuple) for every cell whose hash code matches.
  template <typename F>
  void Probe(uint32_t hash, F&& f) const {
    for (const ChainedCell* c = heads_[BucketIndex(hash)]; c != nullptr;
         c = c->next) {
      if (c->hash == hash) f(c->tuple);
    }
  }

  uint64_t CountTuplesSlow() const;

 private:
  ChainedCell* ArenaAlloc();

  FastMod32 bucket_of_;  // hash -> bucket number; holds num_buckets
  std::vector<ChainedCell*> heads_;
  std::vector<AlignedBuffer<ChainedCell>> arena_blocks_;
  uint64_t arena_used_ = 0;
  uint64_t arena_capacity_ = 0;
  uint64_t num_tuples_ = 0;
};

}  // namespace hashjoin

#endif  // HASHJOIN_HASH_CHAINED_HASH_TABLE_H_
