#ifndef HASHJOIN_JOIN_CHAINED_KERNELS_H_
#define HASHJOIN_JOIN_CHAINED_KERNELS_H_

#include <cstring>

#include "hash/chained_hash_table.h"
#include "hash/hash_func.h"
#include "join/join_common.h"
#include "storage/relation.h"

namespace hashjoin {

/// Builds a chained-bucket hash table from a partition (no prefetching:
/// the insert path is one dependent reference to the bucket head slot).
template <typename MM>
void BuildChained(MM& mm, const Relation& build, ChainedHashTable* ht,
                  HashCodeMode requested = HashCodeMode::kMemoized) {
  const auto& cfg = mm.config();
  const HashCodeMode hash_mode = SlotHashMode(requested, build);
  TupleCursor cursor(build);
  const SlottedPage::Slot* slot;
  const uint8_t* tuple;
  while (cursor.Next(&slot, &tuple)) {
    mm.Read(slot, sizeof(SlottedPage::Slot));
    uint32_t hash;
    if (hash_mode == HashCodeMode::kMemoized) {
      hash = slot->hash_code;
      mm.Busy(cfg.cost_slot_bookkeeping);
    } else {
      uint32_t key;
      mm.Read(tuple, 4);
      std::memcpy(&key, tuple, 4);
      hash = HashKey32(key);
      mm.Busy(cfg.cost_hash);
    }
    mm.Busy(cfg.cost_hash);
    uint64_t idx = ht->BucketIndex(hash);
    // Head slot read-modify-write plus the new cell's initialization.
    mm.Read(ht->head_slot(idx), sizeof(void*));
    ht->Insert(hash, tuple);
    mm.Write(ht->head_slot(idx), sizeof(void*));
    mm.Write(ht->head(idx), sizeof(ChainedCell));
    mm.Busy(cfg.cost_visit_header);
  }
}

/// How the chained probe attempts to prefetch.
enum class ChainedPrefetch {
  kNone,      // plain pointer chasing
  kNextCell,  // the §3 "naive" idea: prefetch c->next while visiting c
};

/// Probes a chained-bucket table one tuple at a time. With kNextCell it
/// issues the naive within-visit prefetch the paper's §3 argues cannot
/// work: the next cell's address is only known once the current cell has
/// already arrived, so the prefetch overlaps nothing but the hash-code
/// comparison. This kernel exists to measure that argument.
template <typename MM>
uint64_t ProbeChained(MM& mm, const Relation& probe,
                      const ChainedHashTable& ht, uint32_t build_tuple_size,
                      ChainedPrefetch prefetch_mode, Relation* out,
                      HashCodeMode requested = HashCodeMode::kMemoized) {
  const auto& cfg = mm.config();
  const HashCodeMode hash_mode = SlotHashMode(requested, probe);
  uint32_t probe_tuple_size = probe.schema().fixed_size();
  OutputSink sink(out, probe.page_size());
  TupleCursor cursor(probe);
  const SlottedPage::Slot* slot;
  const uint8_t* tuple;
  uint64_t outputs = 0;
  while (cursor.Next(&slot, &tuple)) {
    mm.Read(slot, sizeof(SlottedPage::Slot));
    uint32_t hash;
    if (hash_mode == HashCodeMode::kMemoized) {
      hash = slot->hash_code;
      mm.Busy(cfg.cost_slot_bookkeeping);
    } else {
      uint32_t key;
      mm.Read(tuple, 4);
      std::memcpy(&key, tuple, 4);
      hash = HashKey32(key);
      mm.Busy(cfg.cost_hash);
    }
    mm.Busy(cfg.cost_hash);
    for (const ChainedCell* c = ht.head(ht.BucketIndex(hash));
         c != nullptr; c = c->next) {
      mm.Read(c, sizeof(ChainedCell));
      if (prefetch_mode == ChainedPrefetch::kNextCell &&
          c->next != nullptr) {
        // Naive: by the time this issues, the cell is already here; the
        // prefetch can only overlap the comparison below (§3).
        mm.Prefetch(c->next, sizeof(ChainedCell));
      }
      mm.Busy(cfg.cost_visit_cell);
      bool match = (c->hash == hash);
      mm.Branch(kBranchCellHashMatch, match);
      if (!match) continue;
      mm.Read(c->tuple, build_tuple_size);
      mm.Busy(cfg.cost_key_compare);
      if (std::memcmp(c->tuple, tuple, 4) != 0) continue;
      uint16_t out_size = uint16_t(build_tuple_size + probe_tuple_size);
      uint8_t* dst = sink.Alloc(out_size);
      std::memcpy(dst, c->tuple, build_tuple_size);
      std::memcpy(dst + build_tuple_size, tuple, probe_tuple_size);
      mm.Write(dst, out_size);
      mm.Busy(cfg.cost_tuple_copy_per_line *
              ((out_size + kCacheLineSize - 1) / kCacheLineSize));
      ++outputs;
    }
  }
  sink.Final();
  return outputs;
}

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_CHAINED_KERNELS_H_
