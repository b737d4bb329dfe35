// GraceHashJoin's single-threaded path with a span around each public
// call, for the traced pass of the service workloads.
#include <memory>
#include <optional>
#include <utility>

#include "hash/hash_table.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {

using hashjoin::GraceConfig;
using hashjoin::HashTable;
using hashjoin::JoinResult;
using hashjoin::RealMemory;
using hashjoin::Relation;

JoinResult TracedGraceJoin(RealMemory& mm, const Relation& build,
                           const Relation& probe, const GraceConfig& config,
                           OpTrace* trace) {
  HJ_CHECK(config.cache_mode == GraceConfig::CacheMode::kNone &&
           config.num_threads <= 1 && config.executor == nullptr)
      << "TracedGraceJoin mirrors only the serial, cache-mode-free path";
  JoinResult result;
  const uint32_t wanted =
      config.forced_num_partitions != 0
          ? config.forced_num_partitions
          : hashjoin::ComputeNumPartitions(
                build.num_tuples(), build.data_bytes(),
                hashjoin::EffectiveMemoryBudget(config));
  const hashjoin::PartitionPlan plan =
      hashjoin::PlanPartitionPasses(wanted, config.max_active_partitions);
  const uint32_t num_parts = plan.FinalParts();
  result.num_partitions = num_parts;
  Relation discard(hashjoin::ConcatSchema(build.schema(), probe.schema()),
                   config.page_size);

  const bool cache_eligible = config.table_cache != nullptr &&
                              num_parts == 1 && build.num_tuples() > 0;
  if (cache_eligible) {
    hashjoin::cache::PinnedTable pinned;
    {
      Span span(trace, Layer::kCacheAcquire);
      pinned = config.table_cache->Acquire(config.cache_key);
    }
    if (pinned) {
      result.cache_hit = true;
      {
        Span span(trace, Layer::kProbe);
        result.output_tuples = hashjoin::ProbePartition(
            mm, config.join_scheme, probe, pinned.table(),
            pinned.build().schema().fixed_size(), config.join_params,
            &discard);
      }
      Span span(trace, Layer::kFree);
      pinned.Reset();
      discard.Clear();
      return result;
    }
  }

  std::vector<Relation> build_parts;
  std::vector<Relation> probe_parts;
  {
    Span span(trace, Layer::kPartition);
    hashjoin::PartitionWithPlan(mm, config, build, plan, &build_parts);
  }
  {
    Span span(trace, Layer::kPartition);
    hashjoin::PartitionWithPlan(mm, config, probe, plan, &probe_parts);
  }
  if (cache_eligible) {
    // A miss keeps the table and its build partition for the cache.
    Relation& build_part = build_parts[0];
    std::unique_ptr<HashTable> ht;
    {
      Span span(trace, Layer::kTableAlloc);
      ht = std::make_unique<HashTable>(
          hashjoin::ChooseBucketCount(build_part.num_tuples(), 1));
    }
    {
      Span span(trace, Layer::kBuild);
      hashjoin::BuildPartition(mm, config.join_scheme, build_part, ht.get(),
                               config.join_params);
    }
    {
      Span span(trace, Layer::kProbe);
      result.output_tuples = hashjoin::ProbePartition(
          mm, config.join_scheme, probe_parts[0], *ht,
          build_part.schema().fixed_size(), config.join_params, &discard);
    }
    Span span(trace, Layer::kCacheOffer);
    config.table_cache->Offer(config.cache_key,
                              std::make_shared<Relation>(std::move(build_part)),
                              std::move(ht));
  } else {
    for (uint32_t p = 0; p < num_parts; ++p) {
      if (build_parts[p].num_tuples() == 0 ||
          probe_parts[p].num_tuples() == 0) {
        continue;
      }
      std::optional<HashTable> ht;
      {
        Span span(trace, Layer::kTableAlloc);
        ht.emplace(
            hashjoin::ChooseBucketCount(build_parts[p].num_tuples(), num_parts));
      }
      {
        Span span(trace, Layer::kBuild);
        hashjoin::BuildPartition(mm, config.join_scheme, build_parts[p],
                                 &*ht, config.join_params);
      }
      {
        Span span(trace, Layer::kProbe);
        result.output_tuples += hashjoin::ProbePartition(
            mm, config.join_scheme, probe_parts[p], *ht,
            build_parts[p].schema().fixed_size(), config.join_params,
            &discard);
      }
      Span span(trace, Layer::kFree);
      ht.reset();
      discard.Clear();
    }
  }
  Span span(trace, Layer::kFree);
  build_parts.clear();
  probe_parts.clear();
  discard.Clear();
  return result;
}

}  // namespace perfbench
