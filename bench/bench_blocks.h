#ifndef HASHJOIN_BENCH_BENCH_BLOCKS_H_
#define HASHJOIN_BENCH_BENCH_BLOCKS_H_

// The record blocks the benches write from stats structs' field lists.
// A bench sets a block only through its descriptor (kSimBlock.Set(&rec,
// stats)), and `bench_diff --check` verifies every block it finds
// against the same descriptors, so neither side names a struct's keys.

#include "cache/hash_table_cache.h"
#include "join/grace_disk.h"
#include "perf/bench_reporter.h"
#include "sched/memory_broker.h"
#include "simcache/stats.h"
#include "storage/buffer_manager.h"
#include "tune/prefetch_tuner.h"

namespace hashjoin {
namespace bench {

inline constexpr perf::Block<sim::SimStats> kSimBlock{"sim"};
inline constexpr perf::ArrayBlock<sim::SimStats> kPerThreadSimBlock{
    "per_thread_sim"};
inline constexpr perf::Block<DiskJoinRecovery> kRecoveryBlock{"recovery"};
inline constexpr perf::Block<IoRecoveryStats> kIoRecoveryBlock{
    "io_recovery"};
inline constexpr perf::ArrayBlock<SpillLevelStats> kSpillLevelsBlock{
    "spill_levels"};
inline constexpr perf::Block<GrantHistory> kGrantBlock{"grant"};
inline constexpr perf::Block<cache::CacheStats, CacheLedger> kCacheBlock{
    "cache"};
inline constexpr perf::Block<DiskPhaseStats> kPartitionPhaseBlock{
    "partition_phase"};
inline constexpr perf::Block<DiskPhaseStats> kProbePartitionPhaseBlock{
    "probe_partition_phase"};
inline constexpr perf::Block<DiskPhaseStats> kJoinPhaseBlock{"join_phase"};
inline constexpr perf::ArrayBlock<tune::TunerSample> kTrajectoryBlock{
    "trajectory"};

/// The counters_unavailable reason of a record the join service timed.
inline constexpr char kServiceTimed[] =
    "per-query wall time is measured by the service, not the trial harness";

/// Every block a bench record may carry, at any depth.
template <class V>
void VisitBlocks(V& v) {
  v(perf::kCountersBlock);
  v(perf::kTailLatencyBlock);
  v(kSimBlock);
  v(kPerThreadSimBlock);
  v(kRecoveryBlock);
  v(kIoRecoveryBlock);
  v(kSpillLevelsBlock);
  v(kGrantBlock);
  v(kCacheBlock);
  v(kPartitionPhaseBlock);
  v(kProbePartitionPhaseBlock);
  v(kJoinPhaseBlock);
  v(kTrajectoryBlock);
}

}  // namespace bench
}  // namespace hashjoin

#endif  // HASHJOIN_BENCH_BENCH_BLOCKS_H_
