// The benchmark workloads behind one interface. Each runs closed-loop
// operations against the library's public API; README.md says why each
// exists and what it is sized against.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "join/grace.h"
#include "mem/memory_model.h"
#include "trace.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Blocks per run. Each block is set up afresh and the timings are
  /// medians over blocks, so more blocks reject more bursts of host
  /// interference, at one more set-up each.
  virtual int Blocks() const = 0;

  /// Builds the inputs (and the service) and runs the warm-up
  /// operations, replacing the state of any earlier call. The benchmark
  /// times it as set-up.
  virtual void SetUp() = 0;

  /// Runs operations in a closed loop until `deadline` passes, or until
  /// `max_ops` operations have started when it is non-zero, appending
  /// one record per operation. `traced` selects the spans pass.
  virtual void RunBlock(Clock::time_point deadline, uint64_t max_ops,
                        bool traced, std::vector<OpRecord>* ops) = 0;

  /// HashTableCache::stats() deltas summed over the traced blocks; all
  /// zero for a workload without a cache.
  virtual hashjoin::cache::CacheStats TracedCacheStats() const { return {}; }

  /// Service invariants checked after the run, e.g. that no query
  /// grant was revoked while the cache held surplus. Empty when held.
  virtual std::string InvariantViolation() const = 0;
};

/// service_reuse and service_spill: queries through a JoinScheduler.
std::unique_ptr<Workload> MakeServiceWorkload(const std::string& name,
                                              uint64_t seed, bool smoke);

/// GraceHashJoin's single-threaded path, call for call, with a span
/// around each public call it makes: the cache consult and offer of a
/// single-partition plan, PartitionWithPlan for both inputs, and per
/// partition pair the HashTable constructor, BuildPartition,
/// ProbePartition and the teardown of the table and emitted output.
hashjoin::JoinResult TracedGraceJoin(hashjoin::RealMemory& mm,
                                     const hashjoin::Relation& build,
                                     const hashjoin::Relation& probe,
                                     const hashjoin::GraceConfig& config,
                                     OpTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
