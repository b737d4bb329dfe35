#ifndef HASHJOIN_JOIN_PROBE_KERNELS_H_
#define HASHJOIN_JOIN_PROBE_KERNELS_H_

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

/// Shared context of one probe pass over a partition.
template <typename MM>
struct ProbeContext {
  MM* mm;
  const HashTable* ht;
  uint32_t build_tuple_size;
  uint32_t probe_tuple_size;
  OutputSink sink;
  HashCodeMode hash_mode;
  bool prefetch_output;
  TupleCursor cursor;
  uint64_t output_count = 0;
  /// Bytes of output already claimed by earlier stage-2 prefetches but
  /// not yet written: later tuples of a group project their output-tail
  /// prefetch past them.
  uint64_t pending_out_bytes = 0;
  /// Cache lines covered by stage-2 output-tail prefetches, counted with
  /// the simulator's per-line convention — the kernel-side ledger the
  /// crosscheck tests compare against the sim's prefetches_issued.
  uint64_t claimed_prefetch_lines = 0;

  ProbeContext(MM* mm_in, const HashTable* ht_in, uint32_t build_size,
               uint32_t probe_size, const Relation& probe, Relation* out_in,
               const KernelParams& params)
      : mm(mm_in),
        ht(ht_in),
        build_tuple_size(build_size),
        probe_tuple_size(probe_size),
        sink(out_in, probe.page_size()),
        hash_mode(SlotHashMode(params.hash_mode, probe)),
        prefetch_output(params.prefetch_output),
        cursor(probe) {}
};

/// Per-tuple pipeline state for the group / software-pipelined probing
/// kernels (§4.4: "we keep state information for the G tuples of a
/// group"; §5.3 uses a circular array of the same states).
struct ProbeState {
  static constexpr uint32_t kMaxCand = 6;

  const uint8_t* tuple = nullptr;
  uint32_t hash = 0;
  const BucketHeader* bucket = nullptr;
  bool alive = false;       // bucket non-empty, still needs processing
  bool has_array = false;   // must scan the bucket's cell array
  bool overflow = false;    // more hash matches than kMaxCand
  const uint8_t* inline_cand = nullptr;  // inline cell hash-matched
  uint32_t ncand = 0;
  const uint8_t* cand[kMaxCand] = {};  // hash-matched array cells
  uint32_t projected_out = 0;  // outputs whose tail lines were prefetched

  /// Clears the per-tuple fields before a new tuple occupies this state
  /// slot (stage 0). The one reset definition every scheme shares: the
  /// hand-copied reset list this replaces drifted once already (PR 1's
  /// projected_out leak).
  void ResetForTuple() {
    alive = true;
    has_array = false;
    overflow = false;
    inline_cand = nullptr;
    ncand = 0;
    projected_out = 0;
  }
};

/// Per-pass accounting surfaced by the probe kernels (optional out
/// parameter): the kernel-side ledger the scheme-equivalence and
/// simulator crosscheck tests compare across schemes.
struct ProbeStats {
  uint64_t output_tuples = 0;
  /// Cache lines of output tail claimed by stage-2 prefetches.
  uint64_t claimed_prefetch_lines = 0;
  /// Bytes claimed by stage 2 but never released by a stage 3 when the
  /// pass ended; any nonzero value means a scheme dropped a state
  /// mid-pipeline.
  uint64_t leaked_out_bytes = 0;
};

/// End of a probe pass: flush the sink, surface the pass accounting, and
/// check that every stage-2 output claim was released by its stage 3.
template <typename MM>
inline uint64_t FinishProbe(ProbeContext<MM>& ctx, ProbeStats* stats) {
  ctx.sink.Final();
  HJ_DCHECK(ctx.pending_out_bytes == 0);
  if (stats != nullptr) {
    stats->output_tuples = ctx.output_count;
    stats->claimed_prefetch_lines = ctx.claimed_prefetch_lines;
    stats->leaked_out_bytes = ctx.pending_out_bytes;
  }
  return ctx.output_count;
}

/// Compares full join keys and emits the concatenated output tuple on a
/// real match. Returns 1 if an output tuple was produced.
template <typename MM>
inline uint64_t ProbeCompareAndEmit(ProbeContext<MM>& ctx,
                                    const uint8_t* build_tuple,
                                    const uint8_t* probe_tuple) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  // Visit the matching build tuple: full key comparison needs its key,
  // and emission copies its payload.
  mm.Read(build_tuple, ctx.build_tuple_size);
  mm.Busy(cfg.cost_key_compare);
  bool equal = std::memcmp(build_tuple, probe_tuple, 4) == 0;
  mm.Branch(kBranchKeyEqual, equal);
  if (!equal) return 0;

  uint16_t out_size =
      uint16_t(ctx.build_tuple_size + ctx.probe_tuple_size);
  uint8_t* dst = ctx.sink.Alloc(out_size);
  mm.Busy(cfg.cost_slot_bookkeeping);
  mm.Read(probe_tuple, ctx.probe_tuple_size);
  std::memcpy(dst, build_tuple, ctx.build_tuple_size);
  std::memcpy(dst + ctx.build_tuple_size, probe_tuple,
              ctx.probe_tuple_size);
  mm.Write(dst, out_size);
  mm.Busy(uint32_t(cfg.cost_tuple_copy_per_line *
                   ((out_size + kCacheLineSize - 1) / kCacheLineSize)));
  ++ctx.output_count;
  return 1;
}

/// Code 0: pull the next probe tuple, obtain its hash code (memoized in
/// the page slot or recomputed), and compute the bucket number. Returns
/// false when the input is exhausted. When `prefetch` is set, issues the
/// prefetch for the bucket header (the stage-1 visit) and — entering a
/// new input page — for the page itself (sequential input, so this is
/// the cheap part of what the simple scheme does).
template <typename MM>
inline bool ProbeStage0(ProbeContext<MM>& ctx, ProbeState& st,
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
  // Bucket number: hash code modulo table size (an integer divide).
  st.bucket = ctx.ht->bucket(ctx.ht->BucketIndex(st.hash));
  mm.Busy(cfg.cost_hash);
  st.ResetForTuple();
  if (prefetch) mm.Prefetch(st.bucket, sizeof(BucketHeader));
  return true;
}

/// Code 1: visit the bucket header; classify the bucket (empty / inline
/// cell only / cell array) and prefetch what stage 2 will touch.
template <typename MM>
inline void ProbeStage1(ProbeContext<MM>& ctx, ProbeState& st,
                        bool prefetch) {
  if (!st.alive) return;
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  const BucketHeader* b = st.bucket;
  mm.Read(b, sizeof(BucketHeader));
  mm.Busy(cfg.cost_visit_header);
  bool empty = (b->count == 0);
  mm.Branch(kBranchBucketEmpty, empty);
  if (empty) {
    st.alive = false;
    return;
  }
  bool inline_match = (b->hash == st.hash);
  mm.Branch(kBranchInlineHashMatch, inline_match);
  if (inline_match) {
    st.inline_cand = b->tuple;
    if (prefetch) mm.Prefetch(b->tuple, ctx.build_tuple_size);
  }
  st.has_array = (b->count > 1);
  mm.Branch(kBranchHasArray, st.has_array);
  if (st.has_array && prefetch) {
    mm.Prefetch(b->array, size_t(b->count - 1) * sizeof(HashCell));
  }
}

/// Code 2: visit the cell array, filter by hash code, and prefetch the
/// matching build tuples (multiple independent prefetches, §4.4). Also
/// prefetches the output tail the emissions of stage 3 will write.
template <typename MM>
inline void ProbeStage2(ProbeContext<MM>& ctx, ProbeState& st,
                        bool prefetch) {
  if (!st.alive) return;
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  if (st.has_array) {
    const BucketHeader* b = st.bucket;
    uint32_t n = b->count - 1;
    mm.Read(b->array, size_t(n) * sizeof(HashCell));
    mm.Busy(cfg.cost_visit_cell * n);
    for (uint32_t i = 0; i < n; ++i) {
      bool match = (b->array[i].hash == st.hash);
      mm.Branch(kBranchCellHashMatch, match);
      if (!match) continue;
      if (st.ncand < ProbeState::kMaxCand) {
        st.cand[st.ncand++] = b->array[i].tuple;
        if (prefetch) {
          mm.Prefetch(b->array[i].tuple, ctx.build_tuple_size);
        }
      } else {
        st.overflow = true;
      }
    }
  }
  if (prefetch && ctx.prefetch_output &&
      (st.inline_cand != nullptr || st.ncand > 0)) {
    // Project the output tail past the outputs earlier tuples of the
    // group claimed but have not written yet; approximate across page
    // switches (prefetch hints need not be exact).
    const uint8_t* tail = ctx.sink.PeekAddr();
    if (tail != nullptr) {
      uint32_t out_size = ctx.build_tuple_size + ctx.probe_tuple_size;
      uint32_t cands = st.ncand + (st.inline_cand != nullptr ? 1 : 0);
      const uint8_t* dst = tail + ctx.pending_out_bytes;
      const size_t bytes = size_t(out_size) * cands;
      mm.Prefetch(dst, bytes);
      // Ledger entry mirroring MemorySim::Prefetch's line loop, so the
      // claimed count is comparable to the sim's prefetches_issued.
      const uint64_t a = reinterpret_cast<uintptr_t>(dst);
      ctx.claimed_prefetch_lines +=
          (a + bytes - 1) / cfg.line_size - a / cfg.line_size + 1;
      st.projected_out = cands;
      ctx.pending_out_bytes += uint64_t(out_size) * cands;
    }
  }
}

/// Code 3: visit candidate build tuples, compare keys, produce outputs.
template <typename MM>
inline void ProbeStage3(ProbeContext<MM>& ctx, ProbeState& st) {
  if (!st.alive) return;
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  if (st.inline_cand != nullptr) {
    ProbeCompareAndEmit(ctx, st.inline_cand, st.tuple);
  }
  if (st.overflow) {
    // Rare: more hash matches than the candidate buffer holds. Rescan
    // the (now cached) array and emit for every hash match.
    const BucketHeader* b = st.bucket;
    uint32_t n = b->count - 1;
    mm.Read(b->array, size_t(n) * sizeof(HashCell));
    mm.Busy(cfg.cost_visit_cell * n);
    for (uint32_t i = 0; i < n; ++i) {
      if (b->array[i].hash == st.hash) {
        ProbeCompareAndEmit(ctx, b->array[i].tuple, st.tuple);
      }
    }
  } else {
    for (uint32_t i = 0; i < st.ncand; ++i) {
      ProbeCompareAndEmit(ctx, st.cand[i], st.tuple);
    }
  }
  // Release exactly what this tuple's stage 2 claimed. A tuple that
  // took the bucket-empty early exit in stage 1 never reaches stage 2,
  // so its projected_out is still 0 and this is a no-op — the audit
  // invariant: stage-2 claims and stage-3 releases pair up one to one,
  // across every interleaving the schemes produce.
  const uint64_t claimed = uint64_t(st.projected_out) *
                           (ctx.build_tuple_size + ctx.probe_tuple_size);
  HJ_DCHECK(ctx.pending_out_bytes >= claimed);
  ctx.pending_out_bytes -= claimed;
  st.projected_out = 0;
  st.alive = false;
}

/// GRACE baseline probing: one tuple per iteration, no prefetching
/// (Figure 3(a) generalized to the real multi-code-path algorithm).
template <typename MM>
uint64_t ProbeBaseline(MM& mm, const Relation& probe, const HashTable& ht,
                       uint32_t build_tuple_size, const KernelParams& params,
                       Relation* out, ProbeStats* stats = nullptr) {
  ProbeContext<MM> ctx(&mm, &ht, build_tuple_size,
                       probe.schema().fixed_size(), probe, out,
                       params);
  ProbeState st;
  while (ProbeStage0(ctx, st, /*prefetch=*/false)) {
    ProbeStage1(ctx, st, false);
    ProbeStage2(ctx, st, false);
    ProbeStage3(ctx, st);
  }
  return FinishProbe(ctx, stats);
}

/// Simple prefetching (§7.1): prefetch each input page wholesale when the
/// scan enters it, and issue a just-in-time prefetch of the bucket
/// header. The hash-table references stay unprefetched — their addresses
/// only become known moments before the visit (the pointer-chasing
/// problem, §3) — which is why the paper measures only a 1.1-1.2X gain.
template <typename MM>
uint64_t ProbeSimple(MM& mm, const Relation& probe, const HashTable& ht,
                     uint32_t build_tuple_size, const KernelParams& params,
                     Relation* out, ProbeStats* stats = nullptr) {
  ProbeContext<MM> ctx(&mm, &ht, build_tuple_size,
                       probe.schema().fixed_size(), probe, out,
                       params);
  ProbeState st;
  // A prefetching stage 0 is exactly the simple scheme: the wholesale
  // input-page prefetch on page entry plus the just-in-time bucket
  // prefetch, issued immediately before the stage-1 visit so its
  // latency is barely overlapped.
  while (ProbeStage0(ctx, st, /*prefetch=*/true)) {
    ProbeStage1(ctx, st, /*prefetch=*/false);
    ProbeStage2(ctx, st, false);
    ProbeStage3(ctx, st);
  }
  return FinishProbe(ctx, stats);
}

/// Group prefetching (§4): strip-mine the probe loop into groups of G
/// tuples and run each code stage for the whole group, prefetching the
/// next stage's references (Figure 3(b)/(d)).
template <typename MM>
uint64_t ProbeGroup(MM& mm, const Relation& probe, const HashTable& ht,
                    uint32_t build_tuple_size, const KernelParams& params,
                    Relation* out, ProbeStats* stats = nullptr) {
  uint32_t group = params.EffectiveGroupSize();
  ProbeContext<MM> ctx(&mm, &ht, build_tuple_size,
                       probe.schema().fixed_size(), probe, out,
                       params);
  const auto& cfg = mm.config();
  std::vector<ProbeState> states(group);
  bool more = true;
  while (more) {
    // Group boundary: the safe point to adopt a live-tuned G — no tuple
    // is mid-pipeline, so resizing the state array loses nothing.
    const uint32_t next_group = params.EffectiveGroupSize();
    if (next_group != group) {
      group = next_group;
      states.resize(group);
    }
    uint32_t g = 0;
    while (g < group) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      if (!ProbeStage0(ctx, states[g], /*prefetch=*/true)) {
        more = false;
        break;
      }
      ++g;
    }
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      ProbeStage1(ctx, states[i], true);
    }
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      ProbeStage2(ctx, states[i], true);
    }
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      ProbeStage3(ctx, states[i]);
    }
  }
  return FinishProbe(ctx, stats);
}

/// Software-pipelined prefetching (§5): each iteration runs stage 0 of
/// tuple j, stage 1 of tuple j-D, ..., stage 3 of tuple j-3D, with the
/// per-tuple states in a power-of-two circular array indexed by bit
/// masking (§5.3).
template <typename MM>
uint64_t ProbeSwp(MM& mm, const Relation& probe, const HashTable& ht,
                  uint32_t build_tuple_size, const KernelParams& params,
                  Relation* out, ProbeStats* stats = nullptr) {
  // Live-tuned D is adopted once per pass: the ring size and the stage
  // offsets are derived from it, so it cannot change mid-pipeline.
  const uint64_t d = params.EffectiveDistance();
  constexpr uint32_t kStages = 3;  // k = 3 dependent references
  ProbeContext<MM> ctx(&mm, &ht, build_tuple_size,
                       probe.schema().fixed_size(), probe, out,
                       params);
  const auto& cfg = mm.config();
  const PipelineRing ring(kStages, d);
  std::vector<ProbeState> states(ring.size);

  uint64_t n = UINT64_MAX;  // learned when the input runs out
  uint64_t issued = 0;
  for (uint64_t j = 0;; ++j) {
    if (j < n) {
      // Stage-0 slot overhead: charged only while tuples are still being
      // issued, so the pipeline drain does not inflate short inputs.
      mm.Busy(cfg.cost_stage_overhead_spp);
      ProbeState& st = states[ring.Slot(j)];
      if (ProbeStage0(ctx, st, /*prefetch=*/true)) {
        ++issued;
      } else {
        n = issued;
      }
    }
    if (j >= d && j - d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      ProbeStage1(ctx, states[ring.Slot(j - d)], true);
    }
    if (j >= 2 * d && j - 2 * d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      ProbeStage2(ctx, states[ring.Slot(j - 2 * d)], true);
    }
    if (j >= 3 * d && j - 3 * d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      ProbeStage3(ctx, states[ring.Slot(j - 3 * d)]);
    }
    // Drain window ends at the actual issued count: the last real tuple
    // (n-1) finishes stage 3 at j = n - 1 + 3D, and an empty input needs
    // no drain at all.
    if (n != UINT64_MAX && (n == 0 || j + 1 >= n + 3 * d)) break;
  }
  return FinishProbe(ctx, stats);
}

// The Scheme dispatcher (ProbePartition) lives in exec_policy.h, which
// layers every execution policy — including the coroutine one — over
// these stage functions.

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_PROBE_KERNELS_H_
