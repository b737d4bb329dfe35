#include "hash/chained_hash_table.h"

#include "util/logging.h"
#include "util/random.h"

namespace hashjoin {

namespace {
constexpr uint64_t kArenaBlockCells = 64 * 1024;
}  // namespace

ChainedHashTable::ChainedHashTable(uint64_t num_buckets)
    : heads_(num_buckets, nullptr) {
  HJ_CHECK(num_buckets > 0 && num_buckets <= UINT32_MAX);
  bucket_of_ = FastMod32(uint32_t(num_buckets));
}

ChainedCell* ChainedHashTable::ArenaAlloc() {
  if (arena_used_ == arena_capacity_) {
    arena_blocks_.push_back(MakeAlignedBuffer<ChainedCell>(kArenaBlockCells));
    arena_used_ = 0;
    arena_capacity_ = kArenaBlockCells;
  }
  return arena_blocks_.back().get() + arena_used_++;
}

void ChainedHashTable::Insert(uint32_t hash, const uint8_t* tuple) {
  ChainedCell* cell = ArenaAlloc();
  cell->hash = hash;
  cell->tuple = tuple;
  uint64_t idx = BucketIndex(hash);
  cell->next = heads_[idx];
  heads_[idx] = cell;
  ++num_tuples_;
}

uint64_t ChainedHashTable::CountTuplesSlow() const {
  uint64_t n = 0;
  for (const ChainedCell* head : heads_) {
    for (const ChainedCell* c = head; c != nullptr; c = c->next) ++n;
  }
  return n;
}

}  // namespace hashjoin
