#ifndef HASHJOIN_JOIN_GRACE_H_
#define HASHJOIN_JOIN_GRACE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "cache/hash_table_cache.h"
#include "join/exec_policy.h"
#include "join/join_common.h"
#include "mem/memory_model.h"
#include "model/cost_model.h"
#include "storage/relation.h"
#include "util/bitops.h"
#include "util/budget_view.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hashjoin {

/// Configuration of a full GRACE hash join run.
struct GraceConfig {
  /// Memory available to the join phase: a build partition plus its hash
  /// table must fit (the paper's experiments use 50MB at a 50:1
  /// memory:cache ratio, §7.1).
  uint64_t memory_budget = 50ull << 20;

  Scheme partition_scheme = Scheme::kGroup;
  Scheme join_scheme = Scheme::kGroup;
  KernelParams partition_params;
  KernelParams join_params;

  /// Use the §7.4 combined partition scheme (simple prefetching while
  /// output buffers fit in L2, `partition_scheme` beyond) instead of a
  /// fixed partition scheme.
  bool combined_partition = true;
  uint32_t l2_bytes = 1 << 20;

  /// Cache partitioning comparison modes (§7.5). kDirect generates
  /// cache-sized partitions straight from the I/O partition phase;
  /// kTwoStep first makes memory-sized partitions, then re-partitions
  /// each pair in memory as a join-phase preprocessing step.
  enum class CacheMode { kNone, kDirect, kTwoStep };
  CacheMode cache_mode = CacheMode::kNone;

  /// Target size of a cache partition plus its hash table. Somewhat
  /// below L2 capacity so the working set truly fits.
  uint64_t cache_budget = 768 * 1024;

  uint32_t page_size = kDefaultPageSize;

  /// Force a partition count (0 = derive from the memory budget).
  uint32_t forced_num_partitions = 0;

  /// Let HybridHashJoin run with a single partition (everything built
  /// and probed in place, nothing spilled) when the sizing says the
  /// whole build fits the budget. Off by default — the classic hybrid
  /// shape always keeps at least one spilled partition — but a caller
  /// joining a partition that is already the product of partitioning
  /// (recursion depth >= 1) should set this so a level that fits in the
  /// grant finishes in memory instead of spilling again.
  bool hybrid_allow_single_partition = false;

  /// Storage managers handle only limited numbers of concurrently active
  /// partitions (§7.5 cites "hundreds" for IBM DB2). 0 = unlimited; a
  /// positive cap triggers multi-pass partitioning when the required
  /// partition count exceeds it. Supports up to cap² final partitions.
  uint32_t max_active_partitions = 0;

  /// Worker threads of the morsel-parallel executor (1 = the paper's
  /// serial path, byte-for-byte unchanged). The join phase dispatches
  /// (build, probe) partition pairs as morsels, largest first; the
  /// partition phase splits each input's pages across workers, each with
  /// its own PartitionSinkSet, and concatenates per-worker partitions at
  /// the end. Prefetch-scheme correctness is unaffected: each worker
  /// runs the unchanged single-threaded kernels on disjoint data.
  uint32_t num_threads = 1;

  /// Shared executor: one fair-share group of a pool the join service
  /// shares across all admitted queries. When set it takes precedence
  /// over `num_threads` (its worker count sizes per-worker state) and no
  /// per-invocation pool is created. Must outlive the join call.
  PoolExecutor* executor = nullptr;

  /// Live memory budget of a scheduler's memory-broker grant. When it
  /// reads non-zero it overrides `memory_budget` at sizing time, so an
  /// admitted query partitioned under the grant it actually holds
  /// rather than a static default.
  BudgetView dynamic_budget;

  /// Cross-query hash-table cache (not owned; must outlive the call).
  /// When set and the sizing collapses to a single partition, the join
  /// consults the cache under `cache_key` before the build phase: a hit
  /// pins the cached table and probes it directly (any scheme,
  /// including kCoro), skipping the build; a miss builds on the build
  /// relation and offers the table back. The cache then shares the
  /// caller's relation when a shared_ptr owns it (and freezes it: see
  /// Relation), and otherwise keeps a page-by-page copy; either way the
  /// entry is charged the build's data bytes plus the table estimate.
  /// Multi-partition plans bypass the cache — a partitioned build is
  /// not reusable as one table.
  cache::HashTableCache* table_cache = nullptr;
  cache::CacheKey cache_key;
};

/// The budget sizing decisions should honor right now: the broker grant
/// when one is wired in, the static configuration otherwise.
inline uint64_t EffectiveMemoryBudget(const GraceConfig& config) {
  const uint64_t live = config.dynamic_budget.bytes();
  return live > 0 ? live : config.memory_budget;
}

/// Partition count such that one partition of `data_bytes` total bytes
/// plus its hash table fits in `budget` bytes.
uint32_t ComputeNumPartitions(uint64_t num_tuples, uint64_t data_bytes,
                              uint64_t budget);

/// Hash table bucket count for a partition: close to its tuple count and
/// relatively prime to the partition count, so bucket assignment stays
/// uniform although all hash codes in partition p are congruent to p
/// (§7.1). For two-step cache partitioning the caller passes the product
/// of both level counts: a sub-partition's hash codes are constrained
/// modulo num_parts * sub_parts.
uint64_t ChooseBucketCount(uint64_t partition_tuples,
                           uint64_t num_partitions);

/// Schema of the join output: build columns followed by probe columns.
Schema ConcatSchema(const Schema& build, const Schema& probe);

namespace internal_grace {

/// Runs `fn` and returns its wall time plus (for simulated memory
/// models) the simulator-cycle delta.
template <typename MM, typename Fn>
PhaseResult MeasurePhase(MM& mm, Fn&& fn) {
  PhaseResult r;
  sim::SimStats before;
  if constexpr (MM::kSimulated) before = mm.sim()->stats();
  WallTimer timer;
  fn();
  r.wall_seconds = timer.ElapsedSeconds();
  if constexpr (MM::kSimulated) r.sim = mm.sim()->stats() - before;
  return r;
}

/// Runs one partition pass with the configured scheme over `range` of
/// the input (the full relation by default).
template <typename MM>
void RunOnePass(MM& mm, const GraceConfig& config, const Relation& input,
                std::vector<Relation>* dests, uint32_t parts,
                uint32_t divisor, PageRange range = PageRange{}) {
  PartitionSinkSet sinks(dests, config.page_size);
  if (config.combined_partition) {
    PartitionCombined(mm, input, &sinks, parts, config.partition_params,
                      config.l2_bytes, config.partition_scheme, divisor,
                      range);
  } else {
    PartitionRelation(mm, config.partition_scheme, input, &sinks, parts,
                      config.partition_params, divisor, range);
  }
}

/// Parallel single partition pass: each worker partitions a disjoint
/// contiguous page range of the input through its own PartitionSinkSet
/// and memory model, then the per-worker partitions are concatenated
/// (the "final sink merge") in worker order, keeping results
/// deterministic for a fixed thread count.
template <typename MM>
void ParallelOnePass(PoolExecutor& pool, WorkerMemorySet<MM>& wmem,
                     const GraceConfig& config, const Relation& input,
                     std::vector<Relation>* dests, uint32_t parts,
                     uint32_t divisor) {
  const uint32_t workers = pool.num_workers();
  const size_t pages = input.num_pages();
  const size_t chunk = (pages + workers - 1) / workers;

  // Per-worker destination sets, indexed [worker][partition].
  std::vector<std::vector<Relation>> locals(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    locals[w].reserve(parts);
    for (uint32_t p = 0; p < parts; ++p) {
      locals[w].emplace_back(input.schema(), config.page_size);
    }
  }
  for (uint32_t w = 0; w < workers; ++w) {
    PageRange range{std::min(size_t(w) * chunk, pages),
                    std::min((size_t(w) + 1) * chunk, pages)};
    if (range.begin >= range.end) continue;
    pool.Submit([&, range](uint32_t wid) {
      // The page split fixes which input chunk this task covers; sinks
      // and the memory model are per-*worker*, so a stolen task still
      // writes only worker-local state.
      RunOnePass(wmem.model(wid), config, input, &locals[wid], parts,
                 divisor, range);
    });
  }
  pool.Wait();
  for (uint32_t w = 0; w < workers; ++w) {
    for (uint32_t p = 0; p < parts; ++p) {
      (*dests)[p].Absorb(&locals[w][p]);
    }
  }
}

}  // namespace internal_grace

/// Pass structure chosen for a required partition count under an
/// active-partition cap.
struct PartitionPlan {
  uint32_t pass1 = 1;  // coarse partitions (hash % pass1)
  uint32_t pass2 = 1;  // partitions per coarse one ((hash / pass1) % pass2)
  uint32_t FinalParts() const { return pass1 * pass2; }
  bool MultiPass() const { return pass1 > 1 && pass2 > 1; }
};

/// Splits `wanted` partitions into at most `max_active` active ones per
/// pass (single pass when it already fits; cap = 0 means unlimited).
PartitionPlan PlanPartitionPasses(uint32_t wanted, uint32_t max_active);

/// Partitions `input` into plan.FinalParts() partitions, honoring the
/// active-partition cap via a second in-storage pass when needed
/// (§7.5's alternative to giving up beyond ~1000 partitions). Final
/// partition p1 * pass2 + p2 holds tuples with hash % pass1 == p1 and
/// (hash / pass1) % pass2 == p2 — identical for build and probe, so
/// pairs still align.
///
/// With a thread pool (`pool` non-null), the first pass splits the input
/// pages across workers; a multi-pass plan's second pass runs one coarse
/// partition per morsel.
template <typename MM>
void PartitionWithPlan(MM& mm, const GraceConfig& config,
                       const Relation& input, const PartitionPlan& plan,
                       std::vector<Relation>* out,
                       PoolExecutor* pool = nullptr,
                       WorkerMemorySet<MM>* wmem = nullptr) {
  out->clear();
  if (!plan.MultiPass()) {
    uint32_t parts = plan.FinalParts();
    for (uint32_t p = 0; p < parts; ++p) {
      out->emplace_back(input.schema(), config.page_size);
    }
    if (pool != nullptr) {
      internal_grace::ParallelOnePass(*pool, *wmem, config, input, out,
                                      parts, 1);
    } else {
      internal_grace::RunOnePass(mm, config, input, out, parts, 1);
    }
    return;
  }
  std::vector<Relation> coarse;
  for (uint32_t p = 0; p < plan.pass1; ++p) {
    coarse.emplace_back(input.schema(), config.page_size);
  }
  if (pool != nullptr) {
    internal_grace::ParallelOnePass(*pool, *wmem, config, input, &coarse,
                                    plan.pass1, 1);
  } else {
    internal_grace::RunOnePass(mm, config, input, &coarse, plan.pass1, 1);
  }
  for (uint32_t p = 0; p < plan.FinalParts(); ++p) {
    out->emplace_back(input.schema(), config.page_size);
  }
  auto second_pass = [&](MM& pass_mm, uint32_t p1) {
    std::vector<Relation> fine;
    for (uint32_t p2 = 0; p2 < plan.pass2; ++p2) {
      fine.emplace_back(input.schema(), config.page_size);
    }
    internal_grace::RunOnePass(pass_mm, config, coarse[p1], &fine,
                               plan.pass2, plan.pass1);
    coarse[p1].Clear();
    for (uint32_t p2 = 0; p2 < plan.pass2; ++p2) {
      (*out)[p1 * plan.pass2 + p2] = std::move(fine[p2]);
    }
  };
  if (pool != nullptr) {
    // Each coarse partition is an independent morsel writing disjoint
    // `out` slots.
    for (uint32_t p1 = 0; p1 < plan.pass1; ++p1) {
      pool->Submit([&, p1](uint32_t wid) {
        second_pass(wmem->model(wid), p1);
      });
    }
    pool->Wait();
  } else {
    for (uint32_t p1 = 0; p1 < plan.pass1; ++p1) second_pass(mm, p1);
  }
}

/// Joins one (build partition, probe partition) pair entirely in memory:
/// builds the hash table with `join_scheme`, then probes. Returns the
/// number of output tuples appended to `out`. `hash_constraint` is the
/// modulus all hash codes of this partition are constrained by (the
/// partition count, or both level counts multiplied for two-step cache
/// partitioning); the bucket count is chosen relatively prime to it.
template <typename MM>
uint64_t JoinPartitionPair(MM& mm, Scheme scheme, const Relation& build_part,
                           const Relation& probe_part,
                           const KernelParams& params,
                           uint64_t hash_constraint, Relation* out) {
  if (build_part.num_tuples() == 0 || probe_part.num_tuples() == 0) {
    return 0;
  }
  HashTable ht(ChooseBucketCount(build_part.num_tuples(), hash_constraint));
  BuildPartition(mm, scheme, build_part, &ht, params);
  return ProbePartition(mm, scheme, probe_part, ht,
                        build_part.schema().fixed_size(), params, out);
}

/// The two-step cache mode's join-phase preprocessing (§7.5): an
/// in-memory partition pass splitting one memory-sized pair into
/// cache-sized sub-partition pairs. Every tuple of partition p already
/// satisfies hash % num_parts == p, so the sub-partition number must
/// come from the *quotient* hash / num_parts — splitting on
/// hash % sub_parts would leave sub-partitions skewed or empty whenever
/// sub_parts shares a factor with num_parts. Returns the sub-partition
/// count.
template <typename MM>
uint32_t TwoStepSubPartition(MM& mm, const GraceConfig& config,
                             uint32_t num_parts, const Relation& build_part,
                             const Relation& probe_part,
                             std::vector<Relation>* sub_build,
                             std::vector<Relation>* sub_probe) {
  uint32_t sub_parts = ComputeNumPartitions(build_part.num_tuples(),
                                            build_part.data_bytes(),
                                            config.cache_budget);
  sub_build->clear();
  sub_probe->clear();
  for (uint32_t s = 0; s < sub_parts; ++s) {
    sub_build->emplace_back(build_part.schema(), config.page_size);
    sub_probe->emplace_back(probe_part.schema(), config.page_size);
  }
  {
    PartitionSinkSet sinks(sub_build, config.page_size);
    PartitionCombined(mm, build_part, &sinks, sub_parts,
                      config.partition_params, config.l2_bytes,
                      config.partition_scheme,
                      /*hash_divisor=*/num_parts);
  }
  {
    PartitionSinkSet sinks(sub_probe, config.page_size);
    PartitionCombined(mm, probe_part, &sinks, sub_parts,
                      config.partition_params, config.l2_bytes,
                      config.partition_scheme,
                      /*hash_divisor=*/num_parts);
  }
  return sub_parts;
}

/// Join-phase work for one partition pair, including the two-step cache
/// mode's in-memory re-partition preprocessing (§7.5). This is the unit
/// the parallel executor dispatches as a morsel.
template <typename MM>
uint64_t JoinGracePartition(MM& mm, const GraceConfig& config,
                            uint32_t num_parts, const Relation& build_part,
                            const Relation& probe_part, Relation* out) {
  if (config.cache_mode != GraceConfig::CacheMode::kTwoStep) {
    return JoinPartitionPair(mm, config.join_scheme, build_part,
                             probe_part, config.join_params, num_parts,
                             out);
  }
  std::vector<Relation> sub_build;
  std::vector<Relation> sub_probe;
  uint32_t sub_parts = TwoStepSubPartition(mm, config, num_parts,
                                           build_part, probe_part,
                                           &sub_build, &sub_probe);
  uint64_t produced = 0;
  for (uint32_t s = 0; s < sub_parts; ++s) {
    // Sub-partition hash codes are constrained modulo both levels.
    produced += JoinPartitionPair(mm, config.join_scheme, sub_build[s],
                                  sub_probe[s], config.join_params,
                                  uint64_t(num_parts) * sub_parts, out);
  }
  return produced;
}

namespace internal_grace {

/// The join phase of a one-partition plan, run on the inputs themselves:
/// the partition pass would only copy both of them. With a table cache
/// (and no §7.5 cache mode) a hit probes the pinned table, and a miss
/// builds on the build relation the cache will share — the caller's own
/// when a shared_ptr owns it, otherwise a page-by-page copy — then
/// offers the table. The cache freezes the relation it keeps.
template <typename MM>
void JoinInPlace(MM& mm, const Relation& build, const Relation& probe,
                 const GraceConfig& config, Relation* output,
                 JoinResult* result) {
  const bool cacheable =
      config.table_cache != nullptr &&
      config.cache_mode == GraceConfig::CacheMode::kNone &&
      build.num_tuples() > 0;
  cache::PinnedTable pinned;
  if (cacheable) pinned = config.table_cache->Acquire(config.cache_key);
  result->cache_hit = static_cast<bool>(pinned);
  result->join_phase = MeasurePhase(mm, [&] {
    if (pinned) {
      result->output_tuples = ProbePartition(
          mm, config.join_scheme, probe, pinned.table(),
          pinned.build().schema().fixed_size(), config.join_params, output);
      return;
    }
    if (!cacheable) {
      result->output_tuples =
          JoinGracePartition(mm, config, 1, build, probe, output);
      return;
    }
    std::shared_ptr<const Relation> shared = build.weak_from_this().lock();
    if (shared == nullptr) {
      shared = std::make_shared<const Relation>(
          build.CopyPages(0, build.num_pages()));
    }
    auto ht = std::make_unique<HashTable>(
        ChooseBucketCount(shared->num_tuples(), 1));
    BuildPartition(mm, config.join_scheme, *shared, ht.get(),
                   config.join_params);
    result->output_tuples = ProbePartition(
        mm, config.join_scheme, probe, *ht, shared->schema().fixed_size(),
        config.join_params, output);
    config.table_cache->Offer(config.cache_key, std::move(shared),
                              std::move(ht));
  });
  result->join_phase.tuples_processed =
      probe.num_tuples() + (pinned ? 0 : build.num_tuples());
}

}  // namespace internal_grace

/// The full GRACE hash join (§2): an I/O partition phase dividing both
/// relations into memory-sized (or cache-sized, for the §7.5 comparison
/// modes) partitions, followed by a join phase processing each pair with
/// in-memory hash tables. A plan with one partition skips the partition
/// phase (it stays empty) and joins the inputs in place. `output`
/// receives the concatenated result tuples; pass nullptr to count matches
/// without retaining them.
///
/// With config.num_threads > 1 both phases run on a work-stealing pool:
/// partition pairs become morsels sorted largest-first (bounding tail
/// latency under partition-size skew), every worker records into its own
/// memory model and output sink, and worker results are merged after
/// each phase — so output counts and simulated totals are independent of
/// the thread count. A one-partition plan runs on the calling thread.
template <typename MM>
JoinResult GraceHashJoin(MM& mm, const Relation& build,
                         const Relation& probe, const GraceConfig& config,
                         Relation* output) {
  JoinResult result;

  // --- sizing ---
  uint64_t budget = EffectiveMemoryBudget(config);
  if (config.cache_mode == GraceConfig::CacheMode::kDirect) {
    budget = config.cache_budget;
  }
  uint32_t wanted_parts =
      config.forced_num_partitions != 0
          ? config.forced_num_partitions
          : ComputeNumPartitions(build.num_tuples(), build.data_bytes(),
                                 budget);
  PartitionPlan plan =
      PlanPartitionPasses(wanted_parts, config.max_active_partitions);
  uint32_t num_parts = plan.FinalParts();
  result.num_partitions = num_parts;
  if (num_parts == 1) {
    internal_grace::JoinInPlace(mm, build, probe, config, output, &result);
    return result;
  }

  // Executor: a shared fair-share group when the service supplies one,
  // a private per-invocation pool otherwise. All per-worker state below
  // is sized by the executor's worker count.
  std::unique_ptr<PoolExecutor> owned_pool;
  PoolExecutor* pool = config.executor;
  if (pool == nullptr && std::max(1u, config.num_threads) > 1) {
    owned_pool = std::make_unique<PoolExecutor>(config.num_threads);
    pool = owned_pool.get();
  }
  const uint32_t threads = pool != nullptr ? pool->num_workers() : 1;

  // --- partition phase (both relations) ---
  std::vector<Relation> build_parts;
  std::vector<Relation> probe_parts;
  result.partition_phase = internal_grace::MeasurePhase(mm, [&] {
    if (pool != nullptr) {
      WorkerMemorySet<MM> wmem(mm, threads);
      PartitionWithPlan(mm, config, build, plan, &build_parts, pool,
                        &wmem);
      PartitionWithPlan(mm, config, probe, plan, &probe_parts, pool,
                        &wmem);
      wmem.MergeInto(mm);
    } else {
      PartitionWithPlan(mm, config, build, plan, &build_parts);
      PartitionWithPlan(mm, config, probe, plan, &probe_parts);
    }
  });
  result.partition_phase.tuples_processed =
      build.num_tuples() + probe.num_tuples();

  // --- join phase ---
  result.join_phase = internal_grace::MeasurePhase(mm, [&] {
    if (pool == nullptr) {
      for (uint32_t p = 0; p < num_parts; ++p) {
        result.output_tuples += JoinGracePartition(
            mm, config, num_parts, build_parts[p], probe_parts[p], output);
      }
      return;
    }
    // Morsel schedule: one task per (build, probe) partition pair,
    // largest pairs first so a straggler partition starts early and the
    // tail under skew is bounded by one morsel, not one thread's share.
    std::vector<uint32_t> order(num_parts);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      uint64_t sa = build_parts[a].data_bytes() + probe_parts[a].data_bytes();
      uint64_t sb = build_parts[b].data_bytes() + probe_parts[b].data_bytes();
      if (sa != sb) return sa > sb;
      return a < b;
    });
    WorkerMemorySet<MM> wmem(mm, threads);
    std::vector<Relation> worker_out;
    std::vector<uint64_t> worker_counts(threads, 0);
    if (output != nullptr) {
      worker_out.reserve(threads);
      for (uint32_t w = 0; w < threads; ++w) {
        worker_out.emplace_back(output->schema(), output->page_size());
      }
    }
    for (uint32_t p : order) {
      pool->Submit([&, p](uint32_t wid) {
        worker_counts[wid] += JoinGracePartition(
            wmem.model(wid), config, num_parts, build_parts[p],
            probe_parts[p], output != nullptr ? &worker_out[wid] : nullptr);
      });
    }
    pool->Wait();
    for (uint32_t w = 0; w < threads; ++w) {
      result.output_tuples += worker_counts[w];
      if (output != nullptr) output->Absorb(&worker_out[w]);
      if constexpr (MM::kSimulated) {
        result.per_thread_join_sim.push_back(wmem.WorkerStats(w));
      }
    }
    wmem.MergeInto(mm);
  });
  result.join_phase.tuples_processed =
      build.num_tuples() + probe.num_tuples();
  return result;
}

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_GRACE_H_
