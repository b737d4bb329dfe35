#ifndef HASHJOIN_JOIN_RESIDENCY_H_
#define HASHJOIN_JOIN_RESIDENCY_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_manager.h"

namespace hashjoin {

/// Which build partitions of a hybrid join are held in memory, what each
/// one costs, and — under a shrinking grant — which one to give up next.
///
/// DiskGraceJoin's residency mode (`hybrid_residency`) starts every
/// partition resident and evicts on demand; the classic GRACE mode starts
/// every one spilled. This class is the pure bookkeeping side of that
/// policy. It owns the resident pages (the join's own page buffers,
/// handed over as they fill) and the spill ordering, but no I/O: the
/// join evicts a partition by calling Evict() and queueing the returned
/// pages for write as they are, and re-admits one by keeping the pages
/// of a scan of its file and calling Readmit().
/// Keeping the policy free of I/O makes the victim selection
/// unit-testable in isolation.
///
/// Victim policy (smallest loss, DESIGN.md §11): among resident
/// partitions, prefer the one that frees the needed bytes on its own
/// while evicting the fewest build tuples; if no single partition frees
/// enough, take the largest so the fewest total evictions get there.
/// Un-spill runs in inverse spill order (latest victim first): later
/// victims were evicted at lower budgets, so they are the cheapest to
/// bring back and the most likely to fit a partial re-grant. Only
/// victims un-spill: a partition that started spilled never does.
class PartitionResidency {
 public:
  /// Every partition starts resident, or every one starts spilled.
  PartitionResidency(uint32_t num_partitions, uint32_t page_size,
                     bool resident);

  /// Appends one full page (page_size bytes) to resident partition `p`.
  void AddPage(uint32_t p, PageBuffer page, uint64_t tuples);

  bool resident(uint32_t p) const { return parts_[p].resident; }
  uint64_t tuples(uint32_t p) const { return parts_[p].tuples; }
  const std::vector<PageBuffer>& pages(uint32_t p) const {
    return parts_[p].pages;
  }

  /// Bytes charged against the budget right now: pages plus projected
  /// hash table (HashTable::EstimateBytes, the estimator the join's
  /// budget checks use) of every resident partition.
  uint64_t ResidentBytes() const;

  /// Bytes eviction of partition `p` would free.
  uint64_t PartitionCost(uint32_t p) const;

  /// Smallest-loss victim to free `needed` bytes, or -1 if nothing is
  /// resident with pages to give up.
  int PickVictim(uint64_t needed) const;

  /// Marks `p` spilled and surrenders its pages (tuple count is kept for
  /// later sizing). The caller writes the pages out.
  std::vector<PageBuffer> Evict(uint32_t p);

  /// The most recently spilled partition (the first to un-spill), or -1
  /// if none are spilled.
  int LastSpilled() const;

  /// Re-admits a spilled partition with pages read back from its file.
  void Readmit(uint32_t p, std::vector<PageBuffer> pages, uint64_t tuples);

  uint32_t num_partitions() const { return uint32_t(parts_.size()); }

 private:
  struct PartState {
    std::vector<PageBuffer> pages;
    uint64_t tuples = 0;
    bool resident = true;
    /// Orders un-spill while !resident; 0 = started spilled, never
    /// un-spills.
    uint64_t spill_seq = 0;
  };

  std::vector<PartState> parts_;
  uint32_t page_size_;
  uint64_t next_spill_seq_ = 1;
};

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_RESIDENCY_H_
