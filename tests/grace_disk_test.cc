#include <atomic>
#include <cstring>
#include <functional>

#include "gtest/gtest.h"
#include "join/grace_disk.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

BufferManagerConfig FastDisks(uint32_t n) {
  BufferManagerConfig cfg;
  cfg.num_disks = n;
  cfg.disk.bandwidth_mb_per_s = 20000;
  cfg.disk.request_latency_us = 0;
  return cfg;
}

class DiskGraceJoinTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DiskGraceJoinTest, EndToEndMatchesExpected) {
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 100;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.8;
  JoinWorkload w = GenerateJoinWorkload(spec);

  BufferManager bm(FastDisks(GetParam()));
  DiskGraceJoin join(&bm, 7);
  auto build = join.StoreRelation(w.build);
  auto probe = join.StoreRelation(w.probe);
  ASSERT_TRUE(build.ok()) << build.status().ToString();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  auto r = join.Join(build.value(), probe.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_EQ(r.value().num_partitions, 7u);
  EXPECT_GT(r.value().partition_phase.elapsed_seconds, 0.0);
  EXPECT_GT(r.value().join_phase.elapsed_seconds, 0.0);
  // A clean, well-balanced run needs no recovery actions at all.
  EXPECT_EQ(r.value().recovery.io.read_retries, 0u);
  EXPECT_EQ(r.value().recovery.io.checksum_failures, 0u);
  EXPECT_EQ(r.value().recovery.recursive_splits, 0u);
  EXPECT_EQ(r.value().recovery.chunked_fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(DiskCounts, DiskGraceJoinTest,
                         ::testing::Values(1, 2, 4));

TEST(DiskGraceJoinTest, PartitionFilesPreserveEverything) {
  Relation input = GenerateSourceRelation(5000, 100, 77);
  BufferManager bm(FastDisks(3));
  DiskGraceJoin join(&bm, 5);
  auto file = join.StoreRelation(input);
  ASSERT_TRUE(file.ok());
  auto parts_or = join.Partition(file.value(), nullptr);
  ASSERT_TRUE(parts_or.ok()) << parts_or.status().ToString();
  const auto& parts = parts_or.value();
  ASSERT_EQ(parts.size(), 5u);
  uint64_t total = 0;
  for (uint32_t p = 0; p < parts.size(); ++p) {
    auto scan = bm.OpenScan(parts[p]);
    const uint8_t* page = nullptr;
    while (scan.NextPage(&page).ok() && page != nullptr) {
      SlottedPage pg = SlottedPage::Attach(const_cast<uint8_t*>(page));
      // Stamped by the join's writer.
      EXPECT_TRUE(pg.VerifyChecksum(bm.config().disk.page_size));
      total += pg.slot_count();
      for (int s = 0; s < pg.slot_count(); ++s) {
        // Memoized hash codes route every tuple to this partition.
        ASSERT_EQ(pg.GetHashCode(s) % 5, p);
      }
    }
  }
  EXPECT_EQ(total, input.num_tuples());
}

TEST(DiskGraceJoinTest, EmptyRelationsJoinToNothing) {
  Relation empty(Schema::KeyPayload(100));
  BufferManager bm(FastDisks(2));
  DiskGraceJoin join(&bm, 3);
  auto b = join.StoreRelation(empty);
  auto p = join.StoreRelation(empty);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().output_tuples, 0u);
}

TEST(DiskGraceJoinTest, MismatchedPartitionListsAreRejected) {
  BufferManager bm(FastDisks(1));
  DiskGraceJoin join(&bm, 3);
  std::vector<BufferManager::FileId> two = {bm.CreateFile(), bm.CreateFile()};
  std::vector<BufferManager::FileId> one = {bm.CreateFile()};
  auto r = join.JoinPartitions(two, one, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DiskGraceJoinTest, BudgetedJoinRecursesInsteadOfOverrunningMemory) {
  // Unskewed workload with a budget far below one partition's footprint:
  // every partition must recurse (possibly multiple levels) yet the
  // result must match, and no in-memory build may exceed the budget.
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 100;
  spec.matches_per_build = 1.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  BufferManager bm(FastDisks(2));
  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.memory_budget = 96 * 1024;
  cfg.overflow_fanout = 4;
  cfg.max_recursion_depth = 6;
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(w.build);
  auto p = join.StoreRelation(w.probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_GT(r.value().recovery.recursive_splits, 0u);
  EXPECT_GE(r.value().recovery.deepest_recursion, 1u);
  EXPECT_LE(r.value().recovery.max_build_bytes, cfg.memory_budget);
}

// --- role reversal ---------------------------------------------------

/// `count` tuples per key for each key in [key_base, key_base + keys).
Relation MakeDuplicateRelation(uint32_t key_base, uint32_t keys,
                               uint32_t count, uint32_t tuple_size) {
  Relation rel(Schema::KeyPayload(tuple_size));
  std::vector<uint8_t> buf(tuple_size, 0xA5);
  for (uint32_t k = 0; k < keys; ++k) {
    uint32_t key = key_base + k;
    std::memcpy(buf.data(), &key, sizeof(key));
    for (uint32_t i = 0; i < count; ++i) {
      rel.Append(buf.data(), uint16_t(tuple_size));
    }
  }
  return rel;
}

StatusOr<DiskJoinResult> RunJoin(const DiskJoinConfig& cfg, const Relation& a,
                                 const Relation& b) {
  BufferManager bm(FastDisks(2));
  DiskGraceJoin join(&bm, cfg);
  auto fa = join.StoreRelation(a);
  auto fb = join.StoreRelation(b);
  if (!fa.ok()) return fa.status();
  if (!fb.ok()) return fb.status();
  return join.Join(fa.value(), fb.value());
}

TEST(DiskGraceJoinTest, RoleReversalJoinsTheSmallerSideInMemory) {
  // Build far over the budget, probe comfortably under it: instead of
  // splitting the build, the pair swaps roles and joins in one pass.
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 100;
  spec.matches_per_build = 0.25;  // probe is ~1/4 the build's size
  JoinWorkload w = GenerateJoinWorkload(spec);

  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.memory_budget = 128 * 1024;
  auto fwd = RunJoin(cfg, w.build, w.probe);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  EXPECT_EQ(fwd.value().output_tuples, w.expected_matches);
  EXPECT_GT(fwd.value().recovery.role_reversals, 0u);
  EXPECT_EQ(fwd.value().recovery.recursive_splits, 0u);
  EXPECT_LE(fwd.value().recovery.max_build_bytes, cfg.memory_budget);

  // Parity: the swapped call sees the small side already in place, so no
  // reversal fires — but the match count is identical (counting key-equal
  // pairs is side-symmetric).
  auto rev = RunJoin(cfg, w.probe, w.build);
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(rev.value().output_tuples, w.expected_matches);
  EXPECT_EQ(rev.value().recovery.role_reversals, 0u);
}

TEST(DiskGraceJoinTest, RoleReversalParityWithDuplicateHeavyKeys) {
  // Duplicates on both sides: 100 keys x 40 copies against 200 keys x 8
  // copies — 100 overlapping keys x (40 * 8) pairs each. The reversal
  // must not change the count even when neither side has unique keys.
  Relation a = MakeDuplicateRelation(0, 100, 40, 64);
  Relation b = MakeDuplicateRelation(0, 200, 8, 64);
  const uint64_t expected = 100ull * 40 * 8;

  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.memory_budget = 48 * 1024;
  auto fwd = RunJoin(cfg, a, b);
  auto rev = RunJoin(cfg, b, a);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  ASSERT_TRUE(rev.ok()) << rev.status().ToString();
  EXPECT_EQ(fwd.value().output_tuples, expected);
  EXPECT_EQ(rev.value().output_tuples, expected);
}

TEST(DiskGraceJoinTest, EmptyProbeSideShortCircuitsUnderTinyBudget) {
  // One empty side ends the ladder before any rung: no reversal, no
  // split, no fallback — zero matches, zero degradations.
  Relation build = MakeDuplicateRelation(0, 50, 40, 64);
  Relation empty(Schema::KeyPayload(64));

  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.memory_budget = 16 * 1024;
  auto r = RunJoin(cfg, build, empty);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, 0u);
  EXPECT_EQ(r.value().recovery.role_reversals, 0u);
  EXPECT_EQ(r.value().recovery.recursive_splits, 0u);
  EXPECT_EQ(r.value().recovery.chunked_fallbacks, 0u);
  EXPECT_EQ(r.value().recovery.bnl_fallbacks, 0u);
}

// --- block nested loop (single giant key) ----------------------------

TEST(DiskGraceJoinTest, SingleGiantKeyFallsBackToBlockNestedLoop) {
  // Every tuple shares one key, both sides over budget: splitting makes
  // no progress (one hash code) and a chunk hash table would be one long
  // chain, so the ladder bottoms out in the block nested loop — which
  // must still count every cross pair exactly once.
  Relation a = MakeDuplicateRelation(7, 1, 3000, 40);
  Relation b = MakeDuplicateRelation(7, 1, 2500, 40);
  const uint64_t expected = 3000ull * 2500;

  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.memory_budget = 64 * 1024;
  cfg.max_recursion_depth = 4;
  auto r = RunJoin(cfg, a, b);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, expected);
  EXPECT_GE(r.value().recovery.bnl_fallbacks, 1u);
  // The single-hash shape is detected up front: no wasted split rounds.
  EXPECT_EQ(r.value().recovery.recursive_splits, 0u);
  EXPECT_LE(r.value().recovery.max_build_bytes, cfg.memory_budget);
}

// --- adaptive fan-out ------------------------------------------------

TEST(DiskGraceJoinTest, AdaptiveFanoutSizesPartitionsToTheBudget) {
  // The histogram projection picks a power-of-two fan-out whose largest
  // partition fits the budget — so the join runs without a single
  // recursive split even though the static default (8) is ignored.
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 100;
  JoinWorkload w = GenerateJoinWorkload(spec);

  DiskJoinConfig cfg;
  cfg.adaptive_fanout = true;
  cfg.memory_budget = 300 * 1024;
  auto r = RunJoin(cfg, w.build, w.probe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  const uint32_t f = r.value().num_partitions;
  EXPECT_GE(f, 2u);
  EXPECT_LE(f, 64u);
  EXPECT_EQ(f & (f - 1), 0u) << "level-0 fan-out must be a power of two";
  EXPECT_EQ(r.value().recovery.recursive_splits, 0u);
  EXPECT_EQ(r.value().recovery.chunked_fallbacks, 0u);
  EXPECT_LE(r.value().recovery.max_build_bytes, cfg.memory_budget);
}

// --- hybrid residency ------------------------------------------------

TEST(DiskGraceJoinTest, HybridResidencyJoinsResidentPartitionsWithoutSpill) {
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 100;
  JoinWorkload w = GenerateJoinWorkload(spec);

  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.hybrid_residency = true;  // unlimited budget: all stay resident
  auto r = RunJoin(cfg, w.build, w.probe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_EQ(r.value().recovery.victim_spills, 0u);
  EXPECT_EQ(r.value().recovery.victim_unspills, 0u);
}

TEST(DiskGraceJoinTest, HybridResidencyEvictsVictimsAndStaysCorrect) {
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 100;
  JoinWorkload w = GenerateJoinWorkload(spec);

  DiskJoinConfig cfg;
  cfg.num_partitions = 8;
  cfg.hybrid_residency = true;
  cfg.memory_budget = 160 * 1024;  // below the full build working set
  auto r = RunJoin(cfg, w.build, w.probe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_GT(r.value().recovery.victim_spills, 0u);
}

TEST(DiskGraceJoinTest, HybridRevokeHintEvictsAtTheNextPageBoundary) {
  // The budget poll keeps reporting plenty of memory, but a revoke that
  // fired before the join installed its listener reaches it through the
  // installer's catch-up call (as MemoryGrant::SetRevokeListener makes
  // it) with a size below one page — the eager-hint path. The hint
  // alone must tighten the residency target at the next page boundary,
  // evict a victim, and classify it as revoke-forced (the poll never
  // showed the squeeze).
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 100;
  JoinWorkload w = GenerateJoinWorkload(spec);

  std::function<void(uint64_t)> listener;
  const std::atomic<uint64_t> polled{1024 * 1024};
  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.hybrid_residency = true;
  cfg.install_revoke_listener = [&](std::function<void(uint64_t)> fn) {
    listener = std::move(fn);
    if (listener) listener(4 * 1024);
  };
  cfg.dynamic_budget = BudgetView(&polled);
  auto r = RunJoin(cfg, w.build, w.probe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_GT(r.value().recovery.victim_spills, 0u);
  EXPECT_GT(r.value().recovery.revoke_spills, 0u);
  // The join uninstalled its listener on exit (the closure captured it).
  EXPECT_EQ(listener, nullptr);
}

}  // namespace
}  // namespace hashjoin
