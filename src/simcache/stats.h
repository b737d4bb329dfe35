#ifndef HASHJOIN_SIMCACHE_STATS_H_
#define HASHJOIN_SIMCACHE_STATS_H_

#include <cstdint>

#include "util/fields.h"

namespace hashjoin {
namespace sim {

/// Cycle and event counters accumulated by MemorySim. The four cycle
/// buckets partition total simulated time exactly (an invariant the tests
/// assert), mirroring the paper's breakdown bars: busy time, data cache
/// stalls, TLB miss stalls, and other stalls (Figures 1, 11, 15).
struct SimStats {
  // --- cycle buckets ---
  uint64_t busy_cycles = 0;
  uint64_t dcache_stall_cycles = 0;
  uint64_t dtlb_stall_cycles = 0;
  uint64_t other_stall_cycles = 0;

  uint64_t TotalCycles() const {
    return busy_cycles + dcache_stall_cycles + dtlb_stall_cycles +
           other_stall_cycles;
  }

  // --- demand access classification (per cache line touched) ---
  uint64_t l1_hits = 0;        // plain L1 hits (line was already ready)
  uint64_t l2_hits = 0;        // L1 miss, L2 hit
  uint64_t full_misses = 0;    // missed both caches, full latency exposed
  uint64_t prefetch_hidden = 0;   // prefetched line, latency fully hidden
  uint64_t prefetch_partial = 0;  // prefetched line, arrived late
  uint64_t tlb_misses = 0;        // demand TLB misses (charged stalls)

  // --- prefetch traffic ---
  uint64_t prefetches_issued = 0;
  uint64_t prefetch_evicted_before_use = 0;  // conflict victims (Fig 13/17)

  // --- control flow ---
  uint64_t branch_mispredicts = 0;

  uint64_t DemandLineAccesses() const {
    return l1_hits + l2_hits + full_misses + prefetch_hidden +
           prefetch_partial;
  }

  SimStats& operator+=(const SimStats& o) {
    fields::Add(*this, o);
    return *this;
  }

  /// Counter-wise difference (for windowed measurements: after - before).
  SimStats operator-(const SimStats& o) const { return fields::Diff(*this, o); }

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("total_cycles", &SimStats::TotalCycles);
    v("busy_cycles", &SimStats::busy_cycles);
    v("dcache_stall_cycles", &SimStats::dcache_stall_cycles);
    v("dtlb_stall_cycles", &SimStats::dtlb_stall_cycles);
    v("other_stall_cycles", &SimStats::other_stall_cycles);
    v("l1_hits", &SimStats::l1_hits);
    v("l2_hits", &SimStats::l2_hits);
    v("full_misses", &SimStats::full_misses);
    v("prefetch_hidden", &SimStats::prefetch_hidden);
    v("prefetch_partial", &SimStats::prefetch_partial);
    v("tlb_misses", &SimStats::tlb_misses);
    v("prefetches_issued", &SimStats::prefetches_issued);
    v("prefetch_evicted_before_use", &SimStats::prefetch_evicted_before_use);
    v("branch_mispredicts", &SimStats::branch_mispredicts);
  }
};

}  // namespace sim
}  // namespace hashjoin

#endif  // HASHJOIN_SIMCACHE_STATS_H_
