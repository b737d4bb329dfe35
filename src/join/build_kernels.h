#ifndef HASHJOIN_JOIN_BUILD_KERNELS_H_
#define HASHJOIN_JOIN_BUILD_KERNELS_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "hash/hash_func.h"
#include "hash/hash_table.h"
#include "join/join_common.h"
#include "storage/relation.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {

/// Shared context of one hash-table build pass over a partition.
template <typename MM>
struct BuildContext {
  MM* mm;
  HashTable* ht;
  HashCodeMode hash_mode;
  TupleCursor cursor;

  BuildContext(MM* mm_in, HashTable* ht_in, const Relation& build,
               HashCodeMode requested)
      : mm(mm_in),
        ht(ht_in),
        hash_mode(SlotHashMode(requested, build)),
        cursor(build) {}
};

/// Per-tuple pipeline state for the prefetching build kernels. The
/// `next_waiting` field threads the software-pipelined scheme's waiting
/// queue for busy buckets through the states themselves (§5.3).
struct BuildState {
  const uint8_t* tuple = nullptr;
  uint32_t hash = 0;
  BucketHeader* bucket = nullptr;
  bool append_pending = false;  // cell-array write still owed (stage 2)
  int32_t next_waiting = -1;    // SPP waiting queue link (state index)
  int32_t waiting_head = -1;    // SPP: head of tuples waiting on my bucket

  /// Clears the per-tuple fields before a new tuple occupies this state
  /// slot (stage 0); shared by every scheme (see ProbeState).
  void ResetForTuple() {
    append_pending = false;
    next_waiting = -1;
    waiting_head = -1;
  }
};

/// Accounts the (rare) cell-array growth a bucket insert may trigger:
/// allocating a bigger array and copying the old cells.
template <typename MM>
inline void BuildEnsureCapacity(BuildContext<MM>& ctx, BucketHeader* b) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  uint32_t in_array = b->count > 0 ? b->count - 1 : 0;
  bool grows = (b->array == nullptr || in_array == b->capacity);
  if (!grows) return;
  HashCell* old = b->array;
  ctx.ht->EnsureArrayCapacity(b);
  if (old != nullptr && in_array > 0) {
    mm.Read(old, size_t(in_array) * sizeof(HashCell));
    mm.Write(b->array, size_t(in_array) * sizeof(HashCell));
    mm.Busy(uint32_t(
        cfg.cost_tuple_copy_per_line *
        ((in_array * uint32_t(sizeof(HashCell)) + kCacheLineSize - 1) /
         kCacheLineSize)));
  }
  mm.Busy(cfg.cost_slot_bookkeeping);
}

/// Inserts one tuple start-to-finish with no prefetching — the baseline
/// path, and also the conflict-resolution path both prefetching schemes
/// fall back to once the bucket is known to be cached (§4.4: "the
/// previous access has also warmed up the cache ... so we insert the
/// delayed tuple without prefetching").
template <typename MM>
inline void BuildInsertSerial(BuildContext<MM>& ctx, const uint8_t* tuple,
                              uint32_t hash) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  BucketHeader* b = ctx.ht->bucket(ctx.ht->BucketIndex(hash));
  mm.Read(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_header);
  bool empty = (b->count == 0);
  mm.Branch(kBranchBucketEmpty, empty);
  if (empty) {
    b->hash = hash;
    b->tuple = tuple;
    b->count = 1;
    mm.Write(b, sizeof(BucketHeader));
    ctx.ht->BumpTupleCount();
    return;
  }
  BuildEnsureCapacity(ctx, b);
  HashCell* cell = &b->array[b->count - 1];
  cell->hash = hash;
  cell->tuple = tuple;
  ++b->count;
  mm.Write(cell, sizeof(HashCell));
  mm.Write(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_cell);
  ctx.ht->BumpTupleCount();
}

/// Code 0 of building: pull the next build tuple, obtain its hash code,
/// compute the bucket. Returns false at end of input.
template <typename MM>
inline bool BuildStage0(BuildContext<MM>& ctx, BuildState& st,
                        bool prefetch) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  const SlottedPage::Slot* slot = nullptr;
  bool new_page = false;
  if (!ctx.cursor.Next(&slot, &st.tuple, &new_page)) return false;
  if (prefetch && new_page) {
    mm.Prefetch(ctx.cursor.CurrentPageData(), ctx.cursor.page_size());
  }
  mm.Read(slot, sizeof(SlottedPage::Slot));
  if (ctx.hash_mode == HashCodeMode::kMemoized) {
    st.hash = slot->hash_code;
    mm.Busy(cfg.cost_slot_bookkeeping);
  } else {
    uint32_t key;
    mm.Read(st.tuple, 4);
    std::memcpy(&key, st.tuple, 4);
    st.hash = HashKey32(key);
    mm.Busy(cfg.cost_hash);
  }
  st.bucket = ctx.ht->bucket(ctx.ht->BucketIndex(st.hash));
  mm.Busy(cfg.cost_hash);
  st.ResetForTuple();
  if (prefetch) mm.Prefetch(st.bucket, sizeof(BucketHeader));
  return true;
}

/// Code 1 of building: visit the bucket header. Empty buckets complete
/// inline (the single hash cell lives in the header, Figure 2); others
/// acquire the bucket (owner flag), size the cell array, and prefetch the
/// cell slot that stage 2 will write. Returns false if the bucket was
/// busy — the caller applies its scheme's conflict protocol (§4.4/§5.3).
template <typename MM>
inline bool BuildStage1(BuildContext<MM>& ctx, BuildState& st,
                        bool prefetch, uint32_t owner_tag) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  BucketHeader* b = st.bucket;
  mm.Read(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_header);
  bool busy = (b->owner != 0);
  mm.Branch(kBranchBucketBusy, busy);
  if (busy) return false;
  bool empty = (b->count == 0);
  mm.Branch(kBranchBucketEmpty, empty);
  if (empty) {
    b->hash = st.hash;
    b->tuple = st.tuple;
    b->count = 1;
    mm.Write(b, sizeof(BucketHeader));
    ctx.ht->BumpTupleCount();
    return true;
  }
  b->owner = owner_tag;
  BuildEnsureCapacity(ctx, b);
  st.append_pending = true;
  if (prefetch) {
    mm.Prefetch(&b->array[b->count - 1], sizeof(HashCell));
  }
  return true;
}

/// Code 2 of building: write the hash cell, publish the new count, and
/// release the bucket.
template <typename MM>
inline void BuildStage2(BuildContext<MM>& ctx, BuildState& st) {
  if (!st.append_pending) return;
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  BucketHeader* b = st.bucket;
  HashCell* cell = &b->array[b->count - 1];
  cell->hash = st.hash;
  cell->tuple = st.tuple;
  ++b->count;
  b->owner = 0;
  mm.Write(cell, sizeof(HashCell));
  mm.Write(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_cell);
  ctx.ht->BumpTupleCount();
  st.append_pending = false;
}

/// GRACE baseline build.
template <typename MM>
void BuildBaseline(MM& mm, const Relation& build, HashTable* ht,
                   const KernelParams& params) {
  BuildContext<MM> ctx(&mm, ht, build, params.hash_mode);
  BuildState st;
  while (BuildStage0(ctx, st, /*prefetch=*/false)) {
    BuildInsertSerial(ctx, st.tuple, st.hash);
  }
}

/// Simple prefetching build: whole-input-page prefetch plus a
/// just-in-time bucket prefetch.
template <typename MM>
void BuildSimple(MM& mm, const Relation& build, HashTable* ht,
                 const KernelParams& params) {
  BuildContext<MM> ctx(&mm, ht, build, params.hash_mode);
  BuildState st;
  // A prefetching stage 0 is exactly the simple scheme: the wholesale
  // input-page prefetch plus the just-in-time bucket prefetch ahead of
  // the serial insert.
  while (BuildStage0(ctx, st, /*prefetch=*/true)) {
    BuildInsertSerial(ctx, st.tuple, st.hash);
  }
}

/// Group prefetching build (§4.4). Tuples that hash to a bucket another
/// tuple of the same group is still updating are delayed to the end of
/// the group body, where the bucket is guaranteed released (and cached).
template <typename MM>
void BuildGroup(MM& mm, const Relation& build, HashTable* ht,
                const KernelParams& params) {
  const uint32_t group = params.EffectiveGroupSize();
  BuildContext<MM> ctx(&mm, ht, build, params.hash_mode);
  const auto& cfg = mm.config();
  std::vector<BuildState> states(group);
  std::vector<uint32_t> delayed;
  delayed.reserve(group);
  bool more = true;
  // Group prefetching can tolerate any number of delayed tuples (skewed
  // keys); `delayed` holds state indices, processed serially below.
  while (more) {
    uint32_t g = 0;
    while (g < group) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      if (!BuildStage0(ctx, states[g], /*prefetch=*/true)) {
        more = false;
        break;
      }
      ++g;
    }
    delayed.clear();
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      if (!BuildStage1(ctx, states[i], /*prefetch=*/true,
                       /*owner_tag=*/1)) {
        delayed.push_back(i);
      }
    }
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      BuildStage2(ctx, states[i]);
    }
    // Natural group boundary: every in-flight bucket update finished, so
    // delayed tuples insert serially without prefetching (§4.4).
    for (uint32_t idx : delayed) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      BuildInsertSerial(ctx, states[idx].tuple, states[idx].hash);
    }
  }
}

/// Software-pipelined build (§5.3). Conflicting tuples join a waiting
/// queue threaded through the state array; when the owning tuple's final
/// stage releases the bucket, its waiters complete serially against the
/// now-cached bucket.
template <typename MM>
void BuildSwp(MM& mm, const Relation& build, HashTable* ht,
              const KernelParams& params) {
  const uint64_t d = params.EffectiveDistance();
  constexpr uint32_t kStages = 2;  // k = 2 dependent references
  BuildContext<MM> ctx(&mm, ht, build, params.hash_mode);
  const auto& cfg = mm.config();
  const PipelineRing ring(kStages, d);
  std::vector<BuildState> states(ring.size);

  auto drain_waiters = [&](BuildState& owner_state) {
    int32_t w = owner_state.waiting_head;
    owner_state.waiting_head = -1;
    while (w >= 0) {
      BuildState& ws = states[w];
      mm.Busy(cfg.cost_stage_overhead_spp);
      BuildInsertSerial(ctx, ws.tuple, ws.hash);
      w = ws.next_waiting;
      ws.next_waiting = -1;
    }
  };

  uint64_t n = UINT64_MAX;
  uint64_t issued = 0;
  for (uint64_t j = 0;; ++j) {
    mm.Busy(cfg.cost_stage_overhead_spp);
    if (j < n) {
      BuildState& st = states[ring.Slot(j)];
      if (BuildStage0(ctx, st, /*prefetch=*/true)) {
        ++issued;
      } else {
        n = issued;
      }
    }
    if (j >= d && j - d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      uint64_t e = ring.Slot(j - d);
      BuildState& st = states[e];
      uint32_t tag = uint32_t(e) + 1;
      if (!BuildStage1(ctx, st, /*prefetch=*/true, tag)) {
        // Busy bucket: append to the owner's waiting queue (§5.3).
        BuildState& owner = states[st.bucket->owner - 1];
        st.next_waiting = owner.waiting_head;
        owner.waiting_head = int32_t(e);
      }
    }
    if (j >= 2 * d && j - 2 * d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      BuildState& st = states[ring.Slot(j - 2 * d)];
      bool had_append = st.append_pending;
      BuildStage2(ctx, st);
      if (had_append || st.waiting_head >= 0) drain_waiters(st);
    }
    if (n != UINT64_MAX && j >= 2 * d && j - 2 * d + 1 >= n) break;
  }
  return;
}

// The Scheme dispatcher (BuildPartition) lives in exec_policy.h.

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_BUILD_KERNELS_H_
