#ifndef HASHJOIN_JOIN_PARTITION_KERNELS_H_
#define HASHJOIN_JOIN_PARTITION_KERNELS_H_

#include <algorithm>
#include <cstring>
#include <vector>

#include "hash/hash_func.h"
#include "join/join_common.h"
#include "storage/relation.h"
#include "util/aligned.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {

/// One partition's output buffer: a single active page whose bookkeeping
/// (tuple count, bump offset) lives in this descriptor — not in the page
/// — so the partition kernels' first dependent reference (m1) is one
/// cache line computable from the partition number, exactly the paper's
/// §6 structure. When the page fills it is "written out": ownership
/// moves to the destination relation (modeling the async disk write that
/// recycles the buffer) and a fresh page is installed.
///
/// Fields are public: the prefetching kernels interleave partially
/// complete visits across tuples, which an encapsulating method could
/// not express (same rationale as BucketHeader).
struct alignas(kCacheLineSize) PartitionSink {
  uint8_t* page = nullptr;       // active page base
  uint16_t slot_count = 0;
  uint16_t free_offset = 0;
  uint32_t pending = 0;          // allocated but not yet copied (SPP)
  int32_t waiting_head = -1;     // SPP waiting queue (state index)
  Relation* dest = nullptr;

  /// Space left for one `length`-byte tuple plus its slot entry.
  bool HasRoom(uint16_t length, uint32_t page_size) const {
    uint32_t used =
        free_offset +
        (uint32_t(slot_count) + 1) * uint32_t(sizeof(SlottedPage::Slot));
    return used + length <= page_size;
  }
};

/// Manages the P sinks of one partition pass. Their working pages are
/// one page-aligned block of P pages, sink p's at page p: one allocation
/// instead of one per sink, each with its own allocator remainder.
class PartitionSinkSet {
 public:
  PartitionSinkSet(std::vector<Relation>* dests, uint32_t page_size)
      : page_size_(page_size), num_sinks_(dests->size()) {
    sinks_ = MakeAlignedBuffer<PartitionSink>(num_sinks_);
    pages_ = AlignedBuffer<uint8_t>(static_cast<uint8_t*>(
        AlignedAlloc(num_sinks_ * page_size_, page_size_)));
    for (size_t i = 0; i < num_sinks_; ++i) {
      sinks_[i] = PartitionSink{};
      sinks_[i].dest = &(*dests)[i];
      sinks_[i].page = pages_.get() + i * page_size_;
      sinks_[i].free_offset = sizeof(SlottedPage::PageHeader);
    }
  }

  PartitionSink* sink(uint32_t p) { return &sinks_[p]; }
  uint32_t page_size() const { return page_size_; }

  /// Allocates space for a tuple in the sink's active page; returns the
  /// destination address and records the slot, or nullptr when the page
  /// is full (the caller applies its scheme's conflict protocol).
  uint8_t* TryAlloc(PartitionSink* s, uint16_t length, uint32_t hash_code,
                    SlottedPage::Slot** slot_out) {
    if (!s->HasRoom(length, page_size_)) return nullptr;
    SlottedPage::Slot* slot =
        reinterpret_cast<SlottedPage::Slot*>(s->page + page_size_) - 1 -
        s->slot_count;
    slot->offset = s->free_offset;
    slot->length = length;
    slot->hash_code = hash_code;
    uint8_t* dst = s->page + s->free_offset;
    s->free_offset = uint16_t(s->free_offset + length);
    ++s->slot_count;
    if (slot_out != nullptr) *slot_out = slot;
    return dst;
  }

  /// Writes the page header and "writes out" the full page: the bytes
  /// are copied to the destination relation and the buffer is reused for
  /// the next page. On the paper's system this is an asynchronous disk
  /// write (DMA) that recycles the buffer — which is exactly why, with
  /// few partitions, the active buffers stay cache-resident and simple
  /// prefetching suffices (§7.4). Callers must ensure every allocated
  /// tuple has been copied before flushing (the read-write conflict,
  /// §6), and account only the header write, not the DMA.
  void Flush(PartitionSink* s) {
    SlottedPage::PageHeader* h =
        reinterpret_cast<SlottedPage::PageHeader*>(s->page);
    h->slot_count = s->slot_count;
    h->free_offset = s->free_offset;
    h->page_size = page_size_;
    s->dest->AppendCopiedPage(s->page, SlotHashes::kMemoized);
    s->slot_count = 0;
    s->free_offset = sizeof(SlottedPage::PageHeader);
  }

  /// Flushes every sink's partial page (end of the partition pass) and
  /// frees the block of working pages.
  void FinalFlushAll() {
    for (size_t i = 0; i < num_sinks_; ++i) {
      PartitionSink* s = &sinks_[i];
      HJ_CHECK(s->pending == 0);
      HJ_CHECK(s->waiting_head == -1);
      if (s->slot_count > 0) Flush(s);
      s->page = nullptr;
    }
    pages_.reset();
  }

 private:
  uint32_t page_size_;
  size_t num_sinks_;
  AlignedBuffer<PartitionSink> sinks_;
  AlignedBuffer<uint8_t> pages_;  // every sink's working page
};

/// Shared context of one partition pass. `hash_divisor` supports
/// multi-pass partitioning (when a storage manager caps the number of
/// active partitions, §7.5): pass 1 splits on hash % P1, pass 2 on
/// (hash / P1) % P2, giving a consistent final partition id
/// p1 * P2 + p2 on both relations.
template <typename MM>
struct PartitionContext {
  MM* mm;
  PartitionSinkSet* sinks;
  uint32_t num_partitions;
  uint32_t hash_divisor;
  TupleCursor cursor;

  PartitionContext(MM* mm_in, PartitionSinkSet* sinks_in, uint32_t p,
                   const Relation& input, uint32_t divisor = 1,
                   PageRange range = PageRange{})
      : mm(mm_in),
        sinks(sinks_in),
        num_partitions(p),
        hash_divisor(divisor == 0 ? 1 : divisor),
        cursor(input, range.begin, range.end) {}
};

/// Per-tuple pipeline state for the prefetching partition kernels.
struct PartitionState {
  const uint8_t* tuple = nullptr;
  uint16_t length = 0;
  uint32_t hash = 0;
  PartitionSink* sink = nullptr;
  uint8_t* dst = nullptr;             // copy destination (stage 2)
  SlottedPage::Slot* slot = nullptr;  // slot entry to fill (stage 2)
  bool copy_pending = false;
  int32_t next_waiting = -1;  // SPP waiting queue link

  /// Clears the per-tuple fields before a new tuple occupies this state
  /// slot (stage 0); shared by every scheme (see ProbeState).
  void ResetForTuple() {
    dst = nullptr;
    slot = nullptr;
    copy_pending = false;
    next_waiting = -1;
  }
};

/// Code 0 of partitioning: read the next input tuple's key, compute the
/// 4-byte hash code (memoized into the output slot later) and the
/// partition number, and prefetch the sink descriptor.
template <typename MM>
inline bool PartitionStage0(PartitionContext<MM>& ctx, PartitionState& st,
                            bool prefetch, bool prefetch_input_pages) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  const SlottedPage::Slot* slot = nullptr;
  bool new_page = false;
  if (!ctx.cursor.Next(&slot, &st.tuple, &new_page)) return false;
  if (prefetch_input_pages && new_page) {
    mm.Prefetch(ctx.cursor.CurrentPageData(), ctx.cursor.page_size());
  }
  mm.Read(slot, sizeof(SlottedPage::Slot));
  st.length = slot->length;
  uint32_t key;
  mm.Read(st.tuple, 4);
  std::memcpy(&key, st.tuple, 4);
  st.hash = HashKey32(key);
  mm.Busy(cfg.cost_hash);
  uint32_t p = (st.hash / ctx.hash_divisor) % ctx.num_partitions;
  mm.Busy(cfg.cost_hash);  // the partition-number integer divide
  st.sink = ctx.sinks->sink(p);
  st.ResetForTuple();
  if (prefetch) mm.Prefetch(st.sink, sizeof(PartitionSink));
  return true;
}

/// Code 1 of partitioning: visit the sink descriptor and claim space in
/// the active output page, prefetching the tuple destination and slot
/// entry that stage 2 will write. Returns false when the page is full —
/// the caller applies its scheme's conflict protocol (§6).
template <typename MM>
inline bool PartitionStage1(PartitionContext<MM>& ctx, PartitionState& st,
                            bool prefetch) {
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  mm.Read(st.sink, sizeof(PartitionSink));
  mm.Busy(cfg.cost_slot_bookkeeping);
  st.dst = ctx.sinks->TryAlloc(st.sink, st.length, st.hash, &st.slot);
  bool full = (st.dst == nullptr);
  mm.Branch(kBranchBufferFull, full);
  if (full) return false;
  mm.Write(st.sink, sizeof(PartitionSink));
  ++st.sink->pending;
  st.copy_pending = true;
  if (prefetch) {
    mm.Prefetch(st.dst, st.length);
    mm.Prefetch(st.slot, sizeof(SlottedPage::Slot));
  }
  return true;
}

/// Code 2 of partitioning: copy the tuple into the output page (the slot
/// entry itself was written at claim time; the paper likewise splits the
/// buffer update from the bulk copy).
template <typename MM>
inline void PartitionStage2(PartitionContext<MM>& ctx, PartitionState& st) {
  if (!st.copy_pending) return;
  MM& mm = *ctx.mm;
  const auto& cfg = mm.config();
  std::memcpy(st.dst, st.tuple, st.length);
  mm.Read(st.tuple, st.length);
  mm.Write(st.dst, st.length);
  mm.Write(st.slot, sizeof(SlottedPage::Slot));
  mm.Busy(uint32_t(cfg.cost_tuple_copy_per_line *
                   ((st.length + kCacheLineSize - 1) / kCacheLineSize)));
  --st.sink->pending;
  st.copy_pending = false;
}

/// Writes out a full page with simulator accounting: the page header
/// write plus the descriptor reset.
template <typename MM>
inline void AccountedFlush(PartitionContext<MM>& ctx, PartitionSink* s) {
  MM& mm = *ctx.mm;
  mm.Write(s->page, sizeof(SlottedPage::PageHeader));
  mm.Busy(mm.config().cost_slot_bookkeeping);
  ctx.sinks->Flush(s);
}

/// Serial insert used by the baseline/simple schemes and by the conflict
/// fallback paths: flushes the full page on the spot (safe because no
/// earlier copies are outstanding when it is called).
template <typename MM>
inline void PartitionInsertSerial(PartitionContext<MM>& ctx,
                                  PartitionState& st) {
  if (!PartitionStage1(ctx, st, /*prefetch=*/false)) {
    HJ_CHECK(st.sink->pending == 0);
    AccountedFlush(ctx, st.sink);
    bool ok = PartitionStage1(ctx, st, false);
    HJ_CHECK(ok);
  }
  PartitionStage2(ctx, st);
}

/// GRACE baseline partitioning.
template <typename MM>
void PartitionBaseline(MM& mm, const Relation& input,
                       PartitionSinkSet* sinks, uint32_t num_partitions,
                       const KernelParams& params,
                       uint32_t hash_divisor = 1,
                       PageRange range = PageRange{}) {
  PartitionContext<MM> ctx(&mm, sinks, num_partitions, input,
                           hash_divisor, range);
  PartitionState st;
  while (PartitionStage0(ctx, st, /*prefetch=*/false,
                         /*prefetch_input_pages=*/false)) {
    PartitionInsertSerial(ctx, st);
  }
  sinks->FinalFlushAll();
}

/// Simple prefetching (§6): prefetch each input page wholesale; with few
/// partitions the output buffers stay cached and this is all that is
/// needed. Also issues a just-in-time sink prefetch.
template <typename MM>
void PartitionSimple(MM& mm, const Relation& input, PartitionSinkSet* sinks,
                     uint32_t num_partitions, const KernelParams& params,
                     uint32_t hash_divisor = 1,
                     PageRange range = PageRange{}) {
  PartitionContext<MM> ctx(&mm, sinks, num_partitions, input,
                           hash_divisor, range);
  PartitionState st;
  while (PartitionStage0(ctx, st, /*prefetch=*/true,
                         /*prefetch_input_pages=*/true)) {
    PartitionInsertSerial(ctx, st);
  }
  sinks->FinalFlushAll();
}

/// Group prefetching for the partition phase (§6): tuples that hit a full
/// output page are delayed to the group boundary, when every claimed copy
/// into that page has completed.
template <typename MM>
void PartitionGroup(MM& mm, const Relation& input, PartitionSinkSet* sinks,
                    uint32_t num_partitions, const KernelParams& params,
                    uint32_t hash_divisor = 1,
                    PageRange range = PageRange{}) {
  const uint32_t group = params.EffectiveGroupSize();
  PartitionContext<MM> ctx(&mm, sinks, num_partitions, input,
                           hash_divisor, range);
  const auto& cfg = mm.config();
  std::vector<PartitionState> states(group);
  std::vector<uint32_t> delayed;
  delayed.reserve(group);
  bool more = true;
  while (more) {
    uint32_t g = 0;
    while (g < group) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      if (!PartitionStage0(ctx, states[g], /*prefetch=*/true,
                           /*prefetch_input_pages=*/true)) {
        more = false;
        break;
      }
      ++g;
    }
    delayed.clear();
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      if (!PartitionStage1(ctx, states[i], /*prefetch=*/true)) {
        delayed.push_back(i);
      }
    }
    for (uint32_t i = 0; i < g; ++i) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      PartitionStage2(ctx, states[i]);
    }
    // Group boundary: all copies done, full pages can be written out and
    // the delayed tuples processed serially (§6).
    for (uint32_t idx : delayed) {
      mm.Busy(cfg.cost_stage_overhead_gp);
      PartitionInsertSerial(ctx, states[idx]);
    }
  }
  sinks->FinalFlushAll();
}

/// Software-pipelined prefetching for the partition phase (§6): a tuple
/// hitting a full page whose claimed copies are still in flight joins the
/// sink's waiting queue; the copy that drains `pending` to zero flushes
/// the page and completes the waiters.
template <typename MM>
void PartitionSwp(MM& mm, const Relation& input, PartitionSinkSet* sinks,
                  uint32_t num_partitions, const KernelParams& params,
                  uint32_t hash_divisor = 1,
                  PageRange range = PageRange{}) {
  const uint64_t d = params.EffectiveDistance();
  constexpr uint32_t kStages = 2;  // k = 2 dependent references
  PartitionContext<MM> ctx(&mm, sinks, num_partitions, input,
                           hash_divisor, range);
  const auto& cfg = mm.config();
  const PipelineRing ring(kStages, d);
  std::vector<PartitionState> states(ring.size);

  auto drain_waiters = [&](PartitionSink* sink) {
    while (sink->pending == 0 && sink->waiting_head >= 0) {
      PartitionState& ws = states[sink->waiting_head];
      sink->waiting_head = ws.next_waiting;
      ws.next_waiting = -1;
      mm.Busy(cfg.cost_stage_overhead_spp);
      PartitionInsertSerial(ctx, ws);
    }
  };

  uint64_t n = UINT64_MAX;
  uint64_t issued = 0;
  for (uint64_t j = 0;; ++j) {
    if (j < n) {
      // Stage-0 slot overhead: charged only while tuples are still being
      // issued, so the pipeline drain does not inflate short inputs.
      mm.Busy(cfg.cost_stage_overhead_spp);
      PartitionState& st = states[ring.Slot(j)];
      if (PartitionStage0(ctx, st, /*prefetch=*/true,
                          /*prefetch_input_pages=*/true)) {
        ++issued;
      } else {
        n = issued;
      }
    }
    if (j >= d && j - d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      uint64_t e = ring.Slot(j - d);
      PartitionState& st = states[e];
      if (!PartitionStage1(ctx, st, /*prefetch=*/true)) {
        if (st.sink->pending == 0) {
          // No copies in flight: flush immediately and retry.
          AccountedFlush(ctx, st.sink);
          bool ok = PartitionStage1(ctx, st, true);
          HJ_CHECK(ok);
        } else {
          st.next_waiting = st.sink->waiting_head;
          st.sink->waiting_head = int32_t(e);
        }
      }
    }
    if (j >= 2 * d && j - 2 * d < n) {
      mm.Busy(cfg.cost_stage_overhead_spp);
      PartitionState& st = states[ring.Slot(j - 2 * d)];
      PartitionSink* sink = st.sink;
      PartitionStage2(ctx, st);
      if (sink != nullptr) drain_waiters(sink);
    }
    // Drain window ends at the actual issued count: the last real tuple
    // (n-1) finishes stage 2 at j = n - 1 + 2D, and an empty input needs
    // no drain at all.
    if (n != UINT64_MAX && (n == 0 || j + 1 >= n + 2 * d)) break;
  }
  sinks->FinalFlushAll();
}

// The Scheme dispatchers (PartitionRelation, PartitionCombined) live in
// exec_policy.h.

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_PARTITION_KERNELS_H_
