#ifndef HASHJOIN_JOIN_JOIN_COMMON_H_
#define HASHJOIN_JOIN_JOIN_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "simcache/stats.h"
#include "storage/relation.h"
#include "util/aligned.h"
#include "util/logging.h"

namespace hashjoin {

/// The CPU-cache execution policies for both phases: the four the paper
/// compares (§7.1) — the GRACE baseline, straightforward ("simple")
/// prefetching, group prefetching (§4), and software-pipelined
/// prefetching (§5) — plus the modern AMAC-style coroutine interleaving
/// the paper's hand-scheduled state machines anticipate (coro_kernels.h).
enum class Scheme {
  kBaseline,
  kSimple,
  kGroup,
  kSwp,
  kCoro,
};

// Scheme <-> name round-trips below share one table in grace.cc; bench
// drivers and tests must not hardcode their own scheme-string lists.

const char* SchemeName(Scheme s);

/// Parses a scheme name ("baseline", "simple", "group", "swp", "coro").
/// Returns false — without touching `*out` — on an unknown name; callers
/// surfacing the failure to users should print SchemeNameList().
bool ParseScheme(const std::string& name, Scheme* out);

/// Comma-separated list of every valid scheme name, for error messages.
std::string SchemeNameList();

/// Every scheme, in table order. Bench drivers iterate this so a newly
/// added scheme shows up everywhere at once.
std::vector<Scheme> AllSchemes();

/// How the join phase obtains hash codes: reuse the 4-byte codes the
/// partition phase memoized in the page slot area (§7.1 optimization), or
/// recompute them from the join keys (the ablation).
enum class HashCodeMode {
  kMemoized,
  kCompute,
};

/// The mode a kernel pass over `rel` runs in: slot codes only when the
/// caller asks for them and every slot of `rel` holds one.
inline HashCodeMode SlotHashMode(HashCodeMode requested,
                                 const Relation& rel) {
  return requested == HashCodeMode::kMemoized && rel.has_hash_codes()
             ? HashCodeMode::kMemoized
             : HashCodeMode::kCompute;
}

/// Tuning parameters shared by the prefetching kernels.
///
/// Kernels read G and D through EffectiveGroupSize() /
/// EffectiveDistance(), never through the raw members, so a degenerate
/// 0 never reaches a kernel's state array or pipeline ring.
struct KernelParams {
  uint32_t group_size = 19;        // G; the paper's optimum at T=150
  uint32_t prefetch_distance = 1;  // D; the paper's optimum at T=150
  /// kCompute is the ablation that hashes keys even where slots hold
  /// codes; kMemoized uses them wherever a relation has them
  /// (SlotHashMode).
  HashCodeMode hash_mode = HashCodeMode::kMemoized;
  /// Prefetch the output tail the emit stage will write (ablatable).
  bool prefetch_output = true;

  /// G as the kernels use it; never 0.
  uint32_t EffectiveGroupSize() const { return std::max(1u, group_size); }

  /// D as the kernels use it; never 0.
  uint32_t EffectiveDistance() const {
    return std::max(1u, prefetch_distance);
  }
};

/// Per-phase measurement: simulated cycle breakdown (when run against
/// SimMemory) plus real wall time (always collected).
struct PhaseResult {
  sim::SimStats sim;
  double wall_seconds = 0;
  uint64_t tuples_processed = 0;
};

/// Result of a full GRACE hash join.
struct JoinResult {
  PhaseResult partition_phase;
  PhaseResult join_phase;  // includes any in-memory re-partition step
  uint64_t output_tuples = 0;
  uint32_t num_partitions = 0;
  /// The build was skipped: the probe ran against a table pinned in
  /// GraceConfig::table_cache. Only one-partition plans consult the
  /// cache, and their partition_phase is always empty.
  bool cache_hit = false;
  /// Join-phase counters per worker thread (simulated runs with
  /// num_threads > 1 only): each worker's share of the merged stats, for
  /// per-thread stall breakdowns and load-balance analysis.
  std::vector<sim::SimStats> per_thread_join_sim;
};

/// Half-open page range of an input relation. The default covers the
/// whole relation; the parallel partition phase splits an input into
/// one disjoint range per worker.
struct PageRange {
  size_t begin = 0;
  size_t end = SIZE_MAX;
};

/// Streams (slot, tuple) pairs over a relation's pages in order. The
/// kernels use it to pull tuples one at a time regardless of page
/// boundaries, and to learn when a new input page begins (the simple
/// prefetching scheme prefetches whole input pages, §6).
class TupleCursor {
 public:
  explicit TupleCursor(const Relation& rel)
      : rel_(&rel), page_index_(0), end_page_(rel.num_pages()) {}

  /// Cursor over the half-open page range [begin_page, end_page). The
  /// parallel partition phase hands each worker a disjoint page range of
  /// the same input relation.
  TupleCursor(const Relation& rel, size_t begin_page, size_t end_page)
      : rel_(&rel),
        page_index_(begin_page),
        end_page_(end_page < rel.num_pages() ? end_page
                                             : rel.num_pages()) {}

  /// Advances to the next tuple. Returns false at end of relation.
  /// `*new_page` (optional) is set true when this tuple is the first of
  /// a page.
  bool Next(const SlottedPage::Slot** slot, const uint8_t** tuple,
            bool* new_page = nullptr) {
    while (true) {
      if (page_index_ >= end_page_) return false;
      const SlottedPage page = rel_->page(page_index_);
      if (slot_index_ >= page.slot_count()) {
        ++page_index_;
        slot_index_ = 0;
        continue;
      }
      if (new_page != nullptr) *new_page = (slot_index_ == 0);
      const SlottedPage::Slot* s = page.GetSlot(slot_index_);
      *slot = s;
      *tuple = page.data() + s->offset;
      ++slot_index_;
      return true;
    }
  }

  /// Base address and size of the current page (for page prefetching).
  const uint8_t* CurrentPageData() const {
    return rel_->page(page_index_).data();
  }
  uint32_t page_size() const { return rel_->page_size(); }

 private:
  const Relation* rel_;
  size_t page_index_ = 0;
  size_t end_page_ = 0;
  int slot_index_ = 0;
};

/// Join-output staging buffer: emissions land in one recycled page-sized
/// buffer; full pages are handed off to the destination relation by an
/// uncharged copy, modeling the paper's pipelined query processing where
/// output buffers are sent to the parent operator (or disk) and reused.
/// Reuse keeps the output working set cache-resident, so — like the
/// paper's machine — the join phase's cache misses are dominated by hash
/// table visits, not by output stores. A count-only join passes a null
/// destination: nothing is kept, so Fill skips the copy into the staging
/// slot and full pages are reformatted in place. The kernels still Alloc
/// every slot and make every memory-model call they make when
/// materialising, so a simulated run charges the same cycles to the same
/// addresses either way; only real memory stops copying.
class OutputSink {
 public:
  /// `page_size` sizes the staging page of a null `dest`; otherwise it
  /// is `dest`'s own page size.
  OutputSink(Relation* dest, uint32_t page_size)
      : dest_(dest),
        page_size_(dest != nullptr ? dest->page_size() : page_size) {
    buffer_ = MakeAlignedBuffer<uint8_t>(page_size_, page_size_);
    view_ = SlottedPage::Format(buffer_.get(), page_size_);
  }

  OutputSink(const OutputSink&) = delete;
  OutputSink& operator=(const OutputSink&) = delete;

  /// Reserves space for one output tuple in the staging buffer, writing
  /// out the buffer first if full.
  uint8_t* Alloc(uint16_t length) {
    uint8_t* dst = view_.AllocTuple(length, 0, nullptr);
    if (dst == nullptr) {
      Flush();
      dst = view_.AllocTuple(length, 0, nullptr);
      HJ_CHECK(dst != nullptr) << "output tuple larger than a page";
    }
    return dst;
  }

  /// Writes one join output tuple, `build` followed by `probe`, into the
  /// slot Alloc returned; a count-only sink keeps nothing and copies
  /// nothing. Memory-model charges are the caller's.
  void Fill(uint8_t* dst, const uint8_t* build, uint32_t build_size,
            const uint8_t* probe, uint32_t probe_size) const {
    if (dest_ == nullptr) return;
    std::memcpy(dst, build, build_size);
    std::memcpy(dst + build_size, probe, probe_size);
  }

  /// Where the next Alloc will land (prefetch hint).
  const uint8_t* PeekAddr() const {
    return buffer_.get() +
           reinterpret_cast<const SlottedPage::PageHeader*>(buffer_.get())
               ->free_offset;
  }

  /// Sends the partial buffer to the destination (end of a probe pass).
  void Final() {
    if (view_.slot_count() > 0) Flush();
  }

 private:
  void Flush() {
    if (dest_ != nullptr) {
      dest_->AppendCopiedPage(buffer_.get(), SlotHashes::kNone);
    }
    view_ = SlottedPage::Format(buffer_.get(), page_size_);
  }

  Relation* dest_;
  uint32_t page_size_;
  AlignedBuffer<uint8_t> buffer_;
  SlottedPage view_;
};

/// Branch-site ids used with the memory model's branch predictor; one id
/// per static conditional in the kernels.
enum BranchSite : uint32_t {
  kBranchBucketEmpty = 1,
  kBranchInlineHashMatch,
  kBranchHasArray,
  kBranchCellHashMatch,
  kBranchKeyEqual,
  kBranchBucketBusy,
  kBranchBufferFull,
  kBranchStateDispatch,
};

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_JOIN_COMMON_H_
