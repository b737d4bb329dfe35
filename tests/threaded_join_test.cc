// Tests of the morsel-parallel GRACE executor and the §7.5 two-step
// cache-partitioning fixes:
//  - ThreadPool correctness (all tasks run, stealing drains queues).
//  - Parallel partition phase produces exactly the serial partitions.
//  - Join determinism: identical output counts for num_threads 1/2/8
//    across all four schemes, on uniform and Zipf-skewed workloads.
//  - Count-only joins (null output) count what materialised ones
//    produce, and one-partition plans join in place with an empty
//    partition phase.
//  - Per-worker sim-stat merging is exact (workers sum to the merged
//    phase totals).
//  - Two-step sub-partitioning divides by the first-level partition
//    count, so sub-partitions stay balanced even when the two level
//    counts share a common factor.

#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <string>

#include "gtest/gtest.h"
#include "hash/hash_table.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "simcache/memory_sim.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (uint64_t i = 1; i <= 1000; ++i) {
    pool.Submit([&sum, i](uint32_t) { sum.fetch_add(i); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 1000ull * 1001 / 2);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count](uint32_t) { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (round + 1) * 50);
  }
}

TEST(ThreadPoolTest, WorkerIdsAreInRange) {
  ThreadPool pool(4);
  std::atomic<uint32_t> bad{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&bad](uint32_t wid) {
      if (wid >= 4) bad.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(ThreadPoolTest, SubmitFromInsideTask) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&](uint32_t) {
      count.fetch_add(1);
      pool.Submit([&count](uint32_t) { count.fetch_add(1); });
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 20);
}

// ---------- Parallel partition phase ----------

uint32_t KeyOf(const uint8_t* t) {
  uint32_t k;
  std::memcpy(&k, t, 4);
  return k;
}

std::map<uint32_t, int> KeyHistogram(const Relation& r) {
  std::map<uint32_t, int> h;
  r.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t) { h[KeyOf(t)]++; });
  return h;
}

TEST(ParallelPartitionTest, MatchesSerialPartitions) {
  Relation input = GenerateSourceRelation(30000, 20, 13);
  GraceConfig config;
  config.page_size = 1024;
  PartitionPlan plan = PlanPartitionPasses(12, 0);
  RealMemory mm;

  std::vector<Relation> serial;
  PartitionWithPlan(mm, config, input, plan, &serial);

  PoolExecutor pool(4u);
  WorkerMemorySet<RealMemory> wmem(mm, 4);
  std::vector<Relation> parallel;
  PartitionWithPlan(mm, config, input, plan, &parallel, &pool, &wmem);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t p = 0; p < serial.size(); ++p) {
    EXPECT_EQ(parallel[p].num_tuples(), serial[p].num_tuples());
    EXPECT_EQ(KeyHistogram(parallel[p]), KeyHistogram(serial[p]));
  }
}

TEST(ParallelPartitionTest, MultiPassMatchesSerial) {
  Relation input = GenerateSourceRelation(20000, 20, 31);
  GraceConfig config;
  config.page_size = 1024;
  PartitionPlan plan = PlanPartitionPasses(35, 6);  // 6x6 two-pass plan
  ASSERT_TRUE(plan.MultiPass());
  RealMemory mm;

  std::vector<Relation> serial;
  PartitionWithPlan(mm, config, input, plan, &serial);

  PoolExecutor pool(3u);
  WorkerMemorySet<RealMemory> wmem(mm, 3);
  std::vector<Relation> parallel;
  PartitionWithPlan(mm, config, input, plan, &parallel, &pool, &wmem);

  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t p = 0; p < serial.size(); ++p) {
    EXPECT_EQ(KeyHistogram(parallel[p]), KeyHistogram(serial[p]));
  }
}

// ---------- Determinism across thread counts ----------

struct ThreadedCase {
  Scheme scheme;
  bool skewed;
};

class ThreadedJoinDeterminism
    : public ::testing::TestWithParam<ThreadedCase> {};

TEST_P(ThreadedJoinDeterminism, SameOutputForAnyThreadCount) {
  const ThreadedCase& c = GetParam();
  if (!SchemeAvailable(c.scheme)) GTEST_SKIP();
  Relation build = c.skewed
                       ? GenerateSkewedRelation(12000, 20, 0.9, 3000, 17)
                       : GenerateSourceRelation(12000, 20, 17);
  Relation probe = c.skewed
                       ? GenerateSkewedRelation(24000, 20, 0.9, 3000, 23)
                       : GenerateSourceRelation(24000, 20, 23);

  GraceConfig config;
  config.partition_scheme = c.scheme;
  config.join_scheme = c.scheme;
  config.forced_num_partitions = 8;
  config.page_size = 2048;

  uint64_t expected_outputs = 0;
  uint64_t expected_materialized = 0;
  for (uint32_t threads : {1u, 2u, 8u}) {
    config.num_threads = threads;
    RealMemory mm;
    Relation out(ConcatSchema(build.schema(), probe.schema()),
                 config.page_size);
    JoinResult r = GraceHashJoin(mm, build, probe, config, &out);
    EXPECT_EQ(r.partition_phase.tuples_processed,
              build.num_tuples() + probe.num_tuples());
    EXPECT_EQ(r.join_phase.tuples_processed,
              build.num_tuples() + probe.num_tuples());
    if (threads == 1) {
      expected_outputs = r.output_tuples;
      expected_materialized = out.num_tuples();
    } else {
      EXPECT_EQ(r.output_tuples, expected_outputs)
          << "threads=" << threads;
      EXPECT_EQ(out.num_tuples(), expected_materialized)
          << "threads=" << threads;
    }
    EXPECT_EQ(out.num_tuples(), r.output_tuples);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ThreadedJoinDeterminism,
    ::testing::Values(ThreadedCase{Scheme::kBaseline, false},
                      ThreadedCase{Scheme::kSimple, false},
                      ThreadedCase{Scheme::kGroup, false},
                      ThreadedCase{Scheme::kSwp, false},
                      ThreadedCase{Scheme::kBaseline, true},
                      ThreadedCase{Scheme::kSimple, true},
                      ThreadedCase{Scheme::kGroup, true},
                      ThreadedCase{Scheme::kSwp, true},
                      ThreadedCase{Scheme::kCoro, false},
                      ThreadedCase{Scheme::kCoro, true}),
    [](const auto& info) {
      return std::string(SchemeName(info.param.scheme)) +
             (info.param.skewed ? "_skewed" : "_uniform");
    });

TEST(ThreadedJoinDeterminism, CorrectCountsOnGeneratedWorkload) {
  WorkloadSpec spec;
  spec.num_build_tuples = 20000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  GraceConfig config;
  config.forced_num_partitions = 8;
  config.page_size = 2048;
  for (uint32_t threads : {1u, 2u, 8u}) {
    config.num_threads = threads;
    RealMemory mm;
    JoinResult r = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
    EXPECT_EQ(r.output_tuples, w.expected_matches) << "threads=" << threads;
  }
}

// A count-only join (null output) never materialises a page, yet must
// count exactly what a materialised join produces, on every scheme, on
// the serial and the pooled path, in place (one partition) and
// partitioned.
TEST(CountOnlyJoinTest, MatchesMaterialisedCount) {
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  for (Scheme scheme : AllSchemes()) {
    for (uint32_t threads : {1u, 4u}) {
      for (uint32_t parts : {1u, 8u}) {
        SCOPED_TRACE(std::string(SchemeName(scheme)) + " threads=" +
                     std::to_string(threads) + " parts=" +
                     std::to_string(parts));
        GraceConfig config;
        config.partition_scheme = scheme;
        config.join_scheme = scheme;
        config.num_threads = threads;
        config.forced_num_partitions = parts;
        config.page_size = 2048;
        RealMemory mm;
        Relation out(ConcatSchema(w.build.schema(), w.probe.schema()),
                     config.page_size);
        JoinResult kept = GraceHashJoin(mm, w.build, w.probe, config, &out);
        JoinResult counted =
            GraceHashJoin(mm, w.build, w.probe, config, nullptr);
        EXPECT_EQ(kept.output_tuples, w.expected_matches);
        EXPECT_EQ(out.num_tuples(), kept.output_tuples);
        EXPECT_FALSE(out.has_hash_codes());
        EXPECT_EQ(counted.output_tuples, kept.output_tuples);
      }
    }
  }
}

// A one-partition plan joins its inputs in place: the partition phase
// is empty (no tuples, no time, no simulated cycles) on the serial and
// the pooled path, and the result matches a two-partition run.
TEST(OnePartitionJoinTest, ReportsAnEmptyPartitionPhase) {
  WorkloadSpec spec;
  spec.num_build_tuples = 4000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    GraceConfig config;
    config.num_threads = threads;
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    JoinResult r = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
    EXPECT_EQ(r.num_partitions, 1u);
    EXPECT_EQ(r.output_tuples, w.expected_matches);
    EXPECT_EQ(r.partition_phase.tuples_processed, 0u);
    EXPECT_EQ(r.partition_phase.wall_seconds, 0.0);
    EXPECT_EQ(r.partition_phase.sim.TotalCycles(), 0u);
    EXPECT_EQ(r.join_phase.tuples_processed,
              w.build.num_tuples() + w.probe.num_tuples());
    EXPECT_GT(r.join_phase.sim.TotalCycles(), 0u);

    config.forced_num_partitions = 2;
    JoinResult two = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
    EXPECT_EQ(two.output_tuples, r.output_tuples);
    EXPECT_EQ(two.partition_phase.tuples_processed,
              w.build.num_tuples() + w.probe.num_tuples());
  }
}

// ---------- Per-worker simulation accounting ----------

TEST(ThreadedSimTest, WorkerStatsSumToMergedPhaseStats) {
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);
  GraceConfig config;
  config.forced_num_partitions = 6;
  config.page_size = 2048;
  config.num_threads = 3;

  sim::SimConfig cfg;
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  JoinResult r = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(r.output_tuples, w.expected_matches);

  // The join phase ran entirely on the workers; the merged phase window
  // must equal the sum of the per-worker counters, cycle for cycle.
  ASSERT_EQ(r.per_thread_join_sim.size(), 3u);
  sim::SimStats sum;
  for (const auto& s : r.per_thread_join_sim) sum += s;
  EXPECT_EQ(sum.busy_cycles, r.join_phase.sim.busy_cycles);
  EXPECT_EQ(sum.dcache_stall_cycles, r.join_phase.sim.dcache_stall_cycles);
  EXPECT_EQ(sum.DemandLineAccesses(),
            r.join_phase.sim.DemandLineAccesses());
  EXPECT_GT(sum.TotalCycles(), 0u);

  // Same join on one thread: the simulated totals must be in the same
  // ballpark (identical work, different per-core cache state), and the
  // partition phase must have accounted the same tuple count.
  config.num_threads = 1;
  sim::MemorySim serial_sim(cfg);
  SimMemory serial_mm(&serial_sim);
  JoinResult serial = GraceHashJoin(serial_mm, w.build, w.probe, config,
                                    nullptr);
  EXPECT_EQ(serial.output_tuples, r.output_tuples);
  EXPECT_EQ(serial.join_phase.tuples_processed,
            r.join_phase.tuples_processed);
  EXPECT_TRUE(serial.per_thread_join_sim.empty());
}

// ---------- Two-step cache partitioning regressions ----------

// Budget that makes ComputeNumPartitions yield exactly `want` parts for
// this relation (ceil division inverted).
uint64_t BudgetForParts(const Relation& r, uint32_t want) {
  uint64_t total =
      r.data_bytes() + HashTable::EstimateBytes(r.num_tuples());
  uint64_t budget = (total + want - 1) / want;
  while (ComputeNumPartitions(r.num_tuples(), r.data_bytes(), budget) >
         want) {
    ++budget;
  }
  return budget;
}

class TwoStepSubPartitionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TwoStepSubPartitionTest, SubPartitionsBalancedAndComplete) {
  const uint32_t sub_parts_wanted = GetParam();
  const uint32_t num_parts = 4;
  WorkloadSpec spec;
  spec.num_build_tuples = 24000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);

  GraceConfig config;
  config.page_size = 2048;
  RealMemory mm;

  // First-level partitions, as the partition phase makes them.
  PartitionPlan plan;
  plan.pass2 = num_parts;
  std::vector<Relation> build_parts, probe_parts;
  PartitionWithPlan(mm, config, w.build, plan, &build_parts);
  PartitionWithPlan(mm, config, w.probe, plan, &probe_parts);

  config.cache_mode = GraceConfig::CacheMode::kTwoStep;
  config.cache_budget = BudgetForParts(build_parts[0], sub_parts_wanted);

  std::vector<Relation> sub_build, sub_probe;
  uint32_t sub_parts = TwoStepSubPartition(mm, config, num_parts,
                                           build_parts[0], probe_parts[0],
                                           &sub_build, &sub_probe);
  ASSERT_EQ(sub_parts, sub_parts_wanted);

  // Regression: with the old `hash % sub_parts` split (no divisor), any
  // common factor between num_parts and sub_parts leaves sub-partitions
  // empty — e.g. 4 and 8 share factor 4, so 6 of 8 would be empty.
  uint64_t total_build = 0;
  uint64_t largest = 0;
  for (uint32_t s = 0; s < sub_parts; ++s) {
    EXPECT_GT(sub_build[s].num_tuples(), 0u) << "empty sub-partition " << s;
    total_build += sub_build[s].num_tuples();
    largest = std::max(largest, sub_build[s].num_tuples());
  }
  EXPECT_EQ(total_build, build_parts[0].num_tuples());
  // Balanced: the largest sub-partition stays near the uniform share.
  EXPECT_LT(largest, 2 * build_parts[0].num_tuples() / sub_parts + 64);

  // Sub-partition id must derive from the quotient on both relations.
  for (uint32_t s = 0; s < sub_parts; ++s) {
    auto check = [&](const Relation& r) {
      r.ForEachTuple([&](const uint8_t*, uint16_t, uint32_t hash) {
        ASSERT_EQ((hash / num_parts) % sub_parts, s);
      });
    };
    check(sub_build[s]);
    check(sub_probe[s]);
  }
}

// 8 shares a factor with num_parts = 4 (the regression); 7 is coprime.
INSTANTIATE_TEST_SUITE_P(CoprimeAndNot, TwoStepSubPartitionTest,
                         ::testing::Values(7u, 8u),
                         [](const auto& info) {
                           return "sub" + std::to_string(info.param);
                         });

class TwoStepJoinTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(TwoStepJoinTest, OutputMatchesOneStepPath) {
  const auto [num_parts, sub_parts] = GetParam();
  WorkloadSpec spec;
  spec.num_build_tuples = 24000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  GraceConfig config;
  config.page_size = 2048;
  config.forced_num_partitions = num_parts;
  RealMemory mm;

  // Reference: the one-step (kNone) path.
  JoinResult one_step = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
  ASSERT_EQ(one_step.output_tuples, w.expected_matches);

  // Two-step cache path, sized to produce `sub_parts` sub-partitions of
  // the (evenly partitioned) first-level partitions.
  std::vector<Relation> parts;
  PartitionPlan plan;
  plan.pass2 = num_parts;
  PartitionWithPlan(mm, config, w.build, plan, &parts);
  config.cache_mode = GraceConfig::CacheMode::kTwoStep;
  config.cache_budget = BudgetForParts(parts[0], sub_parts);

  JoinResult two_step = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(two_step.output_tuples, w.expected_matches);
  EXPECT_EQ(two_step.output_tuples, one_step.output_tuples);

  // And the same under the parallel executor.
  config.num_threads = 4;
  JoinResult threaded = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(threaded.output_tuples, w.expected_matches);
}

INSTANTIATE_TEST_SUITE_P(
    CoprimeAndNot, TwoStepJoinTest,
    ::testing::Values(std::pair<uint32_t, uint32_t>{4u, 8u},
                      std::pair<uint32_t, uint32_t>{4u, 7u},
                      std::pair<uint32_t, uint32_t>{6u, 9u}),
    [](const auto& info) {
      return "p" + std::to_string(info.param.first) + "s" +
             std::to_string(info.param.second);
    });

// ---------- Relation::Absorb ----------

TEST(RelationAbsorbTest, MovesPagesAndCounts) {
  Relation a = GenerateSourceRelation(500, 20, 3);
  Relation b = GenerateSourceRelation(700, 20, 5);
  auto expected = KeyHistogram(a);
  for (const auto& [k, v] : KeyHistogram(b)) expected[k] += v;
  uint64_t bytes = a.data_bytes() + b.data_bytes();
  a.Absorb(&b);
  EXPECT_EQ(a.num_tuples(), 1200u);
  EXPECT_EQ(a.data_bytes(), bytes);
  EXPECT_EQ(b.num_tuples(), 0u);
  EXPECT_EQ(b.num_pages(), 0u);
  EXPECT_EQ(KeyHistogram(a), expected);
}

}  // namespace
}  // namespace hashjoin
