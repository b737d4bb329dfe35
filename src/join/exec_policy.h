#ifndef HASHJOIN_JOIN_EXEC_POLICY_H_
#define HASHJOIN_JOIN_EXEC_POLICY_H_

// Execution-policy dispatch: one Scheme-switched entry point per kernel
// family (partition, build, probe, aggregate), layering the baseline,
// simple, group (§4), software-pipelined (§5), and coroutine policies
// over the shared stage functions. This mirrors the RealMemory/SimMemory
// split one level up: the stage functions fix *what* a tuple's visit
// does, a policy fixes *when* each stage runs relative to other tuples.

#include "join/aggregate_kernels.h"
#include "join/build_kernels.h"
#include "join/coro_kernels.h"
#include "join/join_common.h"
#include "join/partition_kernels.h"
#include "join/probe_kernels.h"

namespace hashjoin {

/// Dispatches partitioning on scheme.
template <typename MM>
void PartitionRelation(MM& mm, Scheme scheme, const Relation& input,
                       PartitionSinkSet* sinks, uint32_t num_partitions,
                       const KernelParams& params,
                       uint32_t hash_divisor = 1,
                       PageRange range = PageRange{}) {
  switch (scheme) {
    case Scheme::kBaseline:
      return PartitionBaseline(mm, input, sinks, num_partitions, params,
                               hash_divisor, range);
    case Scheme::kSimple:
      return PartitionSimple(mm, input, sinks, num_partitions, params,
                             hash_divisor, range);
    case Scheme::kGroup:
      return PartitionGroup(mm, input, sinks, num_partitions, params,
                            hash_divisor, range);
    case Scheme::kSwp:
      return PartitionSwp(mm, input, sinks, num_partitions, params,
                          hash_divisor, range);
    case Scheme::kCoro:
      return PartitionCoro(mm, input, sinks, num_partitions, params,
                           hash_divisor, range);
  }
}

/// Combined scheme (§7.4): simple prefetching while the output buffers
/// fit in the L2 cache, group / software-pipelined / coroutine
/// interleaving beyond.
template <typename MM>
void PartitionCombined(MM& mm, const Relation& input,
                       PartitionSinkSet* sinks, uint32_t num_partitions,
                       const KernelParams& params, uint32_t l2_bytes,
                       Scheme large_scheme = Scheme::kGroup,
                       uint32_t hash_divisor = 1,
                       PageRange range = PageRange{}) {
  uint64_t working_set =
      uint64_t(num_partitions) *
      (sinks->page_size() + sizeof(PartitionSink));
  // Only a fraction of L2 is effectively available to the output
  // buffers: the input stream and miscellaneous structures continuously
  // pollute it (the paper's "other miscellaneous data structures").
  if (working_set <= l2_bytes / 4) {
    PartitionSimple(mm, input, sinks, num_partitions, params,
                    hash_divisor, range);
  } else if (large_scheme == Scheme::kSwp ||
             large_scheme == Scheme::kCoro) {
    PartitionRelation(mm, large_scheme, input, sinks, num_partitions,
                      params, hash_divisor, range);
  } else {
    PartitionGroup(mm, input, sinks, num_partitions, params, hash_divisor,
                   range);
  }
}

/// Dispatches hash-table building on scheme.
template <typename MM>
void BuildPartition(MM& mm, Scheme scheme, const Relation& build,
                    HashTable* ht, const KernelParams& params) {
  switch (scheme) {
    case Scheme::kBaseline:
      return BuildBaseline(mm, build, ht, params);
    case Scheme::kSimple:
      return BuildSimple(mm, build, ht, params);
    case Scheme::kGroup:
      return BuildGroup(mm, build, ht, params);
    case Scheme::kSwp:
      return BuildSwp(mm, build, ht, params);
    case Scheme::kCoro:
      return BuildCoro(mm, build, ht, params);
  }
}

/// Dispatches probing on scheme. `stats` (optional) surfaces the pass's
/// output/claim accounting for the scheme-equivalence tests.
template <typename MM>
uint64_t ProbePartition(MM& mm, Scheme scheme, const Relation& probe,
                        const HashTable& ht, uint32_t build_tuple_size,
                        const KernelParams& params, Relation* out,
                        ProbeStats* stats = nullptr) {
  switch (scheme) {
    case Scheme::kBaseline:
      return ProbeBaseline(mm, probe, ht, build_tuple_size, params, out,
                           stats);
    case Scheme::kSimple:
      return ProbeSimple(mm, probe, ht, build_tuple_size, params, out,
                         stats);
    case Scheme::kGroup:
      return ProbeGroup(mm, probe, ht, build_tuple_size, params, out,
                        stats);
    case Scheme::kSwp:
      return ProbeSwp(mm, probe, ht, build_tuple_size, params, out, stats);
    case Scheme::kCoro:
      return ProbeCoro(mm, probe, ht, build_tuple_size, params, out,
                       stats);
  }
  return 0;
}

/// Dispatches hash aggregation on scheme. Group takes its strip size and
/// coro its interleave width from the effective group size; SPP takes
/// the effective prefetch distance.
template <typename MM>
void AggregateRelation(MM& mm, Scheme scheme, const Relation& input,
                       uint32_t value_offset, HashAggTable* agg,
                       const KernelParams& params) {
  switch (scheme) {
    case Scheme::kBaseline:
      return AggregateBaseline(mm, input, value_offset, agg);
    case Scheme::kSimple:
      return AggregateSimple(mm, input, value_offset, agg);
    case Scheme::kGroup:
      return AggregateGroup(mm, input, value_offset, agg,
                            params.EffectiveGroupSize());
    case Scheme::kSwp:
      return AggregateSwp(mm, input, value_offset, agg,
                          params.EffectiveDistance());
    case Scheme::kCoro:
      return AggregateCoro(mm, input, value_offset, agg,
                           params.EffectiveGroupSize());
  }
}

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_EXEC_POLICY_H_
