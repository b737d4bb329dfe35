#ifndef HASHJOIN_JOIN_AGGREGATE_KERNELS_H_
#define HASHJOIN_JOIN_AGGREGATE_KERNELS_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "hash/hash_func.h"
#include "hash/hash_table.h"
#include "join/join_common.h"
#include "model/cost_model.h"
#include "simcache/sim_config.h"
#include "storage/relation.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {

/// Aggregation-loop stage costs for the generalized prefetching models:
/// stage 0 hashes the key, stage 1 visits the accumulator cell (the one
/// dependent reference, k = 1). The canonical cost vector for tuning the
/// aggregation kernels' group size / prefetch distance with
/// model::ChooseParams — shared by AggregateOperator's auto-tune path
/// and the real_agg bench.
inline model::CodeCosts AggregateCodeCosts() {
  sim::SimConfig def;
  return model::CodeCosts{
      {def.cost_hash, def.cost_visit_cell + def.cost_key_compare}};
}

/// Hash-based group-by aggregation accelerated with the paper's
/// prefetching techniques — the extension the conclusions call out
/// ("our techniques can improve other hash-based algorithms such as
/// hash-based group-by and aggregation"). Groups by the 4-byte key at
/// offset 0 and maintains COUNT(*) and SUM over an 8-byte signed value
/// at a caller-chosen offset.
struct AggState {
  uint32_t key = 0;
  uint32_t pad = 0;
  uint64_t count = 0;
  int64_t sum = 0;
};

/// Aggregation hash table: reuses the join-phase bucket structure, with
/// cells pointing at AggState records in a stable arena.
class HashAggTable {
 public:
  explicit HashAggTable(uint64_t num_buckets) : table_(num_buckets) {}

  HashTable& table() { return table_; }
  const HashTable& table() const { return table_; }

  /// Allocates a zeroed group state (stable address).
  AggState* NewState(uint32_t key) {
    states_.push_back(AggState{});
    states_.back().key = key;
    return &states_.back();
  }

  uint64_t num_groups() const { return states_.size(); }

  /// Invokes f(const AggState&) for every group.
  template <typename F>
  void ForEachGroup(F&& f) const {
    for (const AggState& s : states_) f(s);
  }

  /// Finds a group's state (test helper); nullptr if absent.
  const AggState* Find(uint32_t key) const {
    const AggState* found = nullptr;
    table_.Probe(HashKey32(key), [&](const uint8_t* p) {
      const AggState* s = reinterpret_cast<const AggState*>(p);
      if (s->key == key) found = s;
    });
    return found;
  }

 private:
  HashTable table_;
  std::deque<AggState> states_;  // deque: stable addresses across growth
};

/// Per-tuple pipeline state for the prefetched aggregation loops.
struct AggPipelineState {
  uint32_t hash = 0;
  uint32_t key = 0;
  int64_t value = 0;
  AggState* state = nullptr;

  /// Clears the per-tuple fields before a new tuple occupies this state
  /// slot (stage 0); shared by every scheme (see ProbeState).
  void ResetForTuple() {
    value = 0;
    state = nullptr;
  }
};

/// Stage 0 of aggregation, shared by every scheme: pull the next input
/// tuple, read its key and value, hash, and (when `prefetch` is set)
/// prefetch the input page on entry and the bucket header the visit
/// stage will touch. Returns false at end of input.
template <typename MM>
inline bool AggStage0(MM& mm, TupleCursor& cursor, AggPipelineState& st,
                      uint32_t value_offset, HashTable& ht, bool prefetch) {
  const auto& cfg = mm.config();
  const SlottedPage::Slot* slot;
  const uint8_t* tuple;
  bool new_page = false;
  if (!cursor.Next(&slot, &tuple, &new_page)) return false;
  if (prefetch && new_page) {
    mm.Prefetch(cursor.CurrentPageData(), cursor.page_size());
  }
  mm.Read(slot, sizeof(SlottedPage::Slot));
  st.ResetForTuple();
  mm.Read(tuple, 4);
  std::memcpy(&st.key, tuple, 4);
  st.hash = HashKey32(st.key);
  mm.Busy(cfg.cost_hash * 2);
  if (value_offset + 8 <= slot->length) {
    mm.Read(tuple + value_offset, 8);
    std::memcpy(&st.value, tuple + value_offset, 8);
  }
  if (prefetch) {
    mm.Prefetch(ht.bucket(ht.BucketIndex(st.hash)), sizeof(BucketHeader));
  }
  return true;
}

/// Locates (or creates) the group state for one tuple. The bucket and
/// its cells are resident after the visit, so creation completes inside
/// this stage — unlike join building, aggregation needs no busy-flag
/// protocol: a second tuple of the same group later in the stage loop
/// simply finds the freshly created state.
template <typename MM>
inline AggState* AggVisitBucket(MM& mm, HashAggTable* agg, uint32_t hash,
                                uint32_t key) {
  const auto& cfg = mm.config();
  HashTable& ht = agg->table();
  BucketHeader* b = ht.bucket(ht.BucketIndex(hash));
  mm.Read(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_header);
  if (b->count > 0) {
    if (b->hash == hash) {
      AggState* s =
          reinterpret_cast<AggState*>(const_cast<uint8_t*>(b->tuple));
      mm.Read(&s->key, sizeof(s->key));
      if (s->key == key) return s;
    }
    if (b->count > 1) {
      uint32_t n = b->count - 1;
      mm.Read(b->array, size_t(n) * sizeof(HashCell));
      mm.Busy(cfg.cost_visit_cell * n);
      for (uint32_t i = 0; i < n; ++i) {
        if (b->array[i].hash != hash) continue;
        AggState* s = reinterpret_cast<AggState*>(
            const_cast<uint8_t*>(b->array[i].tuple));
        mm.Read(&s->key, sizeof(s->key));
        if (s->key == key) return s;
      }
    }
  }
  AggState* s = agg->NewState(key);
  ht.Insert(hash, reinterpret_cast<const uint8_t*>(s));
  mm.Write(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_slot_bookkeeping);
  return s;
}

/// One accumulator update (the second dependent reference, m2).
template <typename MM>
inline void AggUpdate(MM& mm, AggPipelineState& st) {
  const auto& cfg = mm.config();
  mm.Read(st.state, sizeof(AggState));
  st.state->count += 1;
  st.state->sum += st.value;
  mm.Write(st.state, sizeof(AggState));
  mm.Busy(cfg.cost_slot_bookkeeping);
}

/// Baseline hash aggregation: one tuple per iteration, no prefetching.
template <typename MM>
void AggregateBaseline(MM& mm, const Relation& input, uint32_t value_offset,
                       HashAggTable* agg) {
  TupleCursor cursor(input);
  AggPipelineState st;
  while (AggStage0(mm, cursor, st, value_offset, agg->table(),
                   /*prefetch=*/false)) {
    st.state = AggVisitBucket(mm, agg, st.hash, st.key);
    AggUpdate(mm, st);
  }
}

/// Simple prefetching for aggregation: the stage-0 input-page prefetch
/// plus the just-in-time bucket prefetch, issued immediately before the
/// visit (same idea — and same limitation — as ProbeSimple).
template <typename MM>
void AggregateSimple(MM& mm, const Relation& input, uint32_t value_offset,
                     HashAggTable* agg) {
  TupleCursor cursor(input);
  AggPipelineState st;
  while (AggStage0(mm, cursor, st, value_offset, agg->table(),
                   /*prefetch=*/true)) {
    st.state = AggVisitBucket(mm, agg, st.hash, st.key);
    AggUpdate(mm, st);
  }
}

/// Group-prefetched hash aggregation (k = 2): stage 0 hashes a group of
/// tuples and prefetches their buckets; stage 1 visits buckets, resolves
/// or creates the group states, and prefetches them; stage 2 updates the
/// accumulators.
template <typename MM>
void AggregateGroup(MM& mm, const Relation& input, uint32_t value_offset,
                    HashAggTable* agg, uint32_t group_size) {
  const auto& cfg = mm.config();
  const uint32_t group = std::max(1u, group_size);
  TupleCursor cursor(input);
  std::vector<AggPipelineState> states(group);
  HashTable& ht = agg->table();
  bool more = true;
  while (more) {
    uint32_t g = 0;
    while (g < group) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      if (!AggStage0(mm, cursor, states[g], value_offset, ht,
                     /*prefetch=*/true)) {
        more = false;
        break;
      }
      ++g;
    }
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      states[i].state =
          AggVisitBucket(mm, agg, states[i].hash, states[i].key);
      mm.Prefetch(states[i].state, sizeof(AggState));
    }
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      AggUpdate(mm, states[i]);
    }
  }
}

/// Software-pipelined hash aggregation (k = 2): iteration j runs stage 0
/// of tuple j, the bucket visit of tuple j-D, and the accumulator update
/// of tuple j-2D, with the circular state array of §5.3. Group creation
/// completes inside the bucket-visit stage (see AggVisitBucket), so —
/// unlike join building — no waiting queue is needed: a later tuple of
/// the same group observes the created state.
template <typename MM>
void AggregateSwp(MM& mm, const Relation& input, uint32_t value_offset,
                  HashAggTable* agg, uint32_t prefetch_distance) {
  const auto& cfg = mm.config();
  const uint64_t d = std::max(1u, prefetch_distance);
  const PipelineRing ring(2, d);  // stages at j, j - d and j - 2d
  TupleCursor cursor(input);
  std::vector<AggPipelineState> states(ring.size);
  HashTable& ht = agg->table();

  uint64_t n = UINT64_MAX;
  uint64_t issued = 0;
  for (uint64_t j = 0;; ++j) {
    mm.Busy(cfg.cost_stage_overhead_spp);
    if (j < n) {
      if (AggStage0(mm, cursor, states[ring.Slot(j)], value_offset, ht,
                    /*prefetch=*/true)) {
        ++issued;
      } else {
        n = issued;
      }
    }
    if (j >= d && j - d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      AggPipelineState& st = states[ring.Slot(j - d)];
      st.state = AggVisitBucket(mm, agg, st.hash, st.key);
      mm.Prefetch(st.state, sizeof(AggState));
    }
    if (j >= 2 * d && j - 2 * d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      AggUpdate(mm, states[ring.Slot(j - 2 * d)]);
    }
    if (n != UINT64_MAX && j >= 2 * d && j - 2 * d + 1 >= n) break;
  }
}

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_AGGREGATE_KERNELS_H_
