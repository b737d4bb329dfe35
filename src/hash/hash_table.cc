#include "hash/hash_table.h"

#include <cstring>

#include "util/logging.h"

namespace hashjoin {

namespace {
// Cells per arena block: 64K cells = 1MB blocks.
constexpr uint64_t kArenaBlockCells = 64 * 1024;
// Initial cell-array capacity when a bucket overflows its inline cell.
constexpr uint32_t kInitialArrayCapacity = 4;
}  // namespace

HashTable::HashTable(uint64_t num_buckets) {
  HJ_CHECK(num_buckets > 0 && num_buckets <= UINT32_MAX);
  bucket_of_ = FastMod32(uint32_t(num_buckets));
  // MakeAlignedBuffer constructs every header, and BucketHeader's
  // member initialisers leave each bucket empty.
  buckets_ = MakeAlignedBuffer<BucketHeader>(num_buckets, kCacheLineSize);
}

HashCell* HashTable::ArenaAlloc(uint32_t cells) {
  if (arena_used_ + cells > arena_capacity_) {
    uint64_t block = std::max<uint64_t>(kArenaBlockCells, cells);
    // Left uninitialised: a cell is written (AppendCell, the kernels,
    // or EnsureArrayCapacity's copy) before anything reads it, and
    // HashCell is an implicit-lifetime aggregate, so the allocation
    // itself creates the cells. Zeroing a 1-MB block cost more than
    // building a small partition's table.
    void* raw = AlignedAlloc(block * sizeof(HashCell), kCacheLineSize);
    arena_blocks_.emplace_back(static_cast<HashCell*>(raw));
    arena_used_ = 0;
    arena_capacity_ = block;
  }
  HashCell* p = arena_blocks_.back().get() + arena_used_;
  arena_used_ += cells;
  return p;
}

HashCell* HashTable::EnsureArrayCapacity(BucketHeader* b) {
  // Cells beyond the inline one live in the array: `count - 1` of them.
  uint32_t in_array = b->count > 0 ? b->count - 1 : 0;
  if (b->array == nullptr) {
    b->array = ArenaAlloc(kInitialArrayCapacity);
    b->capacity = kInitialArrayCapacity;
  } else if (in_array == b->capacity) {
    uint32_t new_cap = b->capacity * 2;
    HashCell* bigger = ArenaAlloc(new_cap);
    std::memcpy(bigger, b->array, size_t(in_array) * sizeof(HashCell));
    b->array = bigger;
    b->capacity = new_cap;
  }
  return b->array;
}

void HashTable::AppendCell(BucketHeader* b, uint32_t hash,
                           const uint8_t* tuple) {
  HJ_DCHECK(b->count >= 1);
  EnsureArrayCapacity(b);
  HashCell* cell = &b->array[b->count - 1];
  cell->hash = hash;
  cell->tuple = tuple;
  ++b->count;
  ++num_tuples_;
}

void HashTable::Insert(uint32_t hash, const uint8_t* tuple) {
  BucketHeader* b = bucket(BucketIndex(hash));
  if (b->count == 0) {
    b->hash = hash;
    b->tuple = tuple;
    b->count = 1;
    ++num_tuples_;
    return;
  }
  AppendCell(b, hash, tuple);
}

uint64_t HashTable::CountTuplesSlow() const {
  uint64_t n = 0;
  for (uint64_t i = 0; i < num_buckets(); ++i) n += buckets_[i].count;
  return n;
}

uint64_t HashTable::EstimateBytes(uint64_t tuples) {
  // One bucket header per tuple (load factor ~1) plus an average of one
  // cell of arena space per tuple (most buckets hold 1-2 tuples).
  return tuples * (sizeof(BucketHeader) + sizeof(HashCell));
}

void HashTable::Reset() {
  for (uint64_t i = 0; i < num_buckets(); ++i) buckets_[i] = BucketHeader{};
  arena_blocks_.clear();
  arena_used_ = 0;
  arena_capacity_ = 0;
  num_tuples_ = 0;
}

}  // namespace hashjoin
