#include <atomic>
#include <cstring>
#include <functional>
#include <utility>

#include "gtest/gtest.h"
#include "hash/hash_func.h"
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
  // Each input is read once by its partition pass, and each partition
  // page is written once and read once by the join phase.
  const IoRecoveryStats& io = r.value().recovery.io;
  EXPECT_GT(io.bytes_written, 0u);
  EXPECT_EQ(io.bytes_read, io.bytes_written + bm.FileBytes(build.value()) +
                               bm.FileBytes(probe.value()));
  // Both inputs are spilled whole at level 0, and nothing deeper.
  ASSERT_EQ(r.value().spill_levels.size(), 1u);
  const SpillLevelStats& lv = r.value().spill_levels[0];
  EXPECT_EQ(lv.level, 0u);
  EXPECT_EQ(lv.tuples, w.build.num_tuples() + w.probe.num_tuples());
  EXPECT_EQ(lv.bytes_written, w.build.data_bytes() + w.probe.data_bytes());
  EXPECT_EQ(lv.partitions_written, 2u * 7u);
}

INSTANTIATE_TEST_SUITE_P(DiskCounts, DiskGraceJoinTest,
                         ::testing::Values(1, 2, 4));

// StoreRelation writes straight from the relation's pages: the pool
// gives no page to the store, and the file reads back page for page.
TEST(DiskGraceJoinTest, StoreRelationTakesNoPoolPage) {
  Relation input = GenerateSourceRelation(20000, 100, 41);
  BufferManager bm(FastDisks(2));
  DiskGraceJoin join(&bm, 4);
  auto file = join.StoreRelation(input);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(bm.pool_pages_allocated(), 0u);
  ASSERT_EQ(bm.FileNumPages(file.value()), input.num_pages());

  auto scan = bm.OpenScan(file.value());
  const uint8_t* page = nullptr;
  for (size_t p = 0; p < input.num_pages(); ++p) {
    ASSERT_TRUE(scan.NextPage(&page).ok());
    ASSERT_NE(page, nullptr);
    EXPECT_EQ(std::memcmp(page, input.page(p).data(), input.page_size()), 0)
        << "page " << p;
  }
  ASSERT_TRUE(scan.NextPage(&page).ok());
  EXPECT_EQ(page, nullptr);
}

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

// --- file statistics from memoized slot codes -------------------------

/// The same tuples Append-built, with no memoized hash codes.
Relation WithoutHashCodes(const Relation& rel) {
  Relation copy(rel.schema(), rel.page_size());
  rel.ForEachTuple(
      [&](const uint8_t* t, uint16_t len, uint32_t) { copy.Append(t, len); });
  return copy;
}

/// Stores both relations and joins the two files as one over-budget
/// partition pair with recursion off, so the ladder's next rung is the
/// block nested loop if the build file is single-hash (UniformHash) and
/// the chunked build if not. Returns the matches and the bytes read,
/// which differ between the two rungs.
std::pair<uint64_t, uint64_t> JoinStoredPair(const Relation& build,
                                             const Relation& probe) {
  BufferManager bm(FastDisks(2));
  DiskJoinConfig cfg;
  cfg.memory_budget = 64 * 1024;
  cfg.max_recursion_depth = 0;
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(build);
  auto p = join.StoreRelation(probe);
  EXPECT_TRUE(b.ok() && p.ok());
  const uint64_t read = bm.recovery_stats().bytes_read;
  auto matches = join.JoinPartitions({b.value()}, {p.value()}, nullptr);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  return {matches.value(), bm.recovery_stats().bytes_read - read};
}

TEST(DiskGraceJoinTest, StoredRelationsPlanAlikeWithOrWithoutSlotHashCodes) {
  // StoreRelation samples a relation's key hashes from its slots when
  // it memoizes them and hashes the keys when it does not; the same
  // tuples must give the same fan-out (ChooseFanout), the same
  // single-hash verdict (UniformHash) and the same result either way.
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 100;
  JoinWorkload w = GenerateJoinWorkload(spec);
  const Relation build = WithoutHashCodes(w.build);
  const Relation probe = WithoutHashCodes(w.probe);
  ASSERT_TRUE(w.build.has_hash_codes());
  ASSERT_FALSE(build.has_hash_codes());

  DiskJoinConfig cfg;
  cfg.adaptive_fanout = true;
  cfg.memory_budget = 300 * 1024;
  auto memoized = RunJoin(cfg, w.build, w.probe);
  auto hashed = RunJoin(cfg, build, probe);
  ASSERT_TRUE(memoized.ok() && hashed.ok());
  EXPECT_GE(memoized.value().num_partitions, 2u);
  EXPECT_EQ(hashed.value().num_partitions, memoized.value().num_partitions);
  EXPECT_EQ(memoized.value().output_tuples, w.expected_matches);
  EXPECT_EQ(hashed.value().output_tuples, w.expected_matches);

  const auto many = JoinStoredPair(w.build, w.probe);
  EXPECT_EQ(JoinStoredPair(build, probe), many);
  EXPECT_EQ(many.first, w.expected_matches);
  Relation one_key(Schema::KeyPayload(40));
  std::vector<uint8_t> tuple(40, 0x5a);
  const uint32_t key = 7;
  std::memcpy(tuple.data(), &key, sizeof(key));
  for (int i = 0; i < 3000; ++i) {
    one_key.Append(tuple.data(), 40, HashKey32(key));
  }
  const auto single = JoinStoredPair(one_key, one_key);
  EXPECT_EQ(JoinStoredPair(WithoutHashCodes(one_key), one_key), single);
  EXPECT_EQ(single.first, 3000ull * 3000);
}

// --- one pass structure, two residency modes -------------------------

TEST(DiskGraceJoinTest, BothResidencyModesReturnTheGeneratorCount) {
  // The classic mode (nothing resident) and the residency mode run the
  // same passes; on generator- and Append-built inputs, unbudgeted, under
  // a budget that forces victims and under a one-page budget, both must
  // return the generator's count.
  WorkloadSpec spec;
  spec.num_build_tuples = 4000;
  spec.tuple_size = 100;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.8;
  const JoinWorkload w = GenerateJoinWorkload(spec);
  const Relation build = WithoutHashCodes(w.build);
  const Relation probe = WithoutHashCodes(w.probe);
  const uint64_t one_page = FastDisks(1).disk.page_size;
  for (const uint64_t budget : {uint64_t{0}, uint64_t{160 * 1024}, one_page}) {
    for (const bool residency : {false, true}) {
      for (const bool appended : {false, true}) {
        SCOPED_TRACE(testing::Message() << "budget " << budget << " residency "
                                        << residency << " appended "
                                        << appended);
        DiskJoinConfig cfg;
        cfg.num_partitions = 8;
        cfg.memory_budget = budget;
        cfg.hybrid_residency = residency;
        auto r = appended ? RunJoin(cfg, build, probe)
                          : RunJoin(cfg, w.build, w.probe);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r.value().output_tuples, w.expected_matches);
        if (residency && budget != 0) {
          EXPECT_GT(r.value().recovery.victim_spills, 0u);
        } else {
          EXPECT_EQ(r.value().recovery.victim_spills, 0u);
        }
      }
    }
  }
}

TEST(DiskGraceJoinTest, ResidencyJoinCountsOnlyTheTuplesItSpills) {
  // A budget that holds about two of eight partitions: the victims'
  // tuples are written at level 0, the resident partitions' are not.
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 100;
  const JoinWorkload w = GenerateJoinWorkload(spec);
  DiskJoinConfig cfg;
  cfg.num_partitions = 8;
  cfg.hybrid_residency = true;
  cfg.memory_budget = 400 * 1024;
  auto r = RunJoin(cfg, w.build, w.probe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_GT(r.value().recovery.victim_spills, 0u);
  ASSERT_FALSE(r.value().spill_levels.empty());
  const SpillLevelStats& lv = r.value().spill_levels[0];
  EXPECT_EQ(lv.level, 0u);
  EXPECT_GT(lv.tuples, 0u);
  EXPECT_LT(lv.tuples, w.build.num_tuples() + w.probe.num_tuples());
}

// --- hybrid residency ------------------------------------------------

TEST(DiskGraceJoinTest, HybridResidencyJoinsResidentPartitionsWithoutSpill) {
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 100;
  JoinWorkload w = GenerateJoinWorkload(spec);

  BufferManager bm(FastDisks(2));
  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.hybrid_residency = true;  // unlimited budget: all stay resident
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(w.build);
  auto p = join.StoreRelation(w.probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_EQ(r.value().recovery.victim_spills, 0u);
  EXPECT_EQ(r.value().recovery.victim_unspills, 0u);
  // The inputs are read once each and nothing is written.
  EXPECT_EQ(r.value().recovery.io.bytes_written, 0u);
  EXPECT_EQ(r.value().recovery.io.bytes_read,
            bm.FileBytes(b.value()) + bm.FileBytes(p.value()));
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

// Every page the hybrid join fills, keeps, queues or reads is a pool
// buffer that changes hands, so however many pages go to disk, the pool
// allocates only up to the most pages in use at once.
TEST(DiskGraceJoinTest, HybridJoinAllocatesPoolPagesOnlyUpToItsPeakInUse) {
  WorkloadSpec spec;
  spec.num_build_tuples = 20000;
  spec.tuple_size = 100;
  JoinWorkload w = GenerateJoinWorkload(spec);

  BufferManagerConfig bmc = FastDisks(1);
  bmc.stripe_unit_pages = 4;  // the worker wakes every few writes
  bmc.io_prefetch_depth = 8;
  BufferManager bm(bmc);
  DiskJoinConfig cfg;
  cfg.num_partitions = 8;
  cfg.hybrid_residency = true;
  cfg.memory_budget = 96 * 1024;  // a dozen resident pages
  DiskGraceJoin join(&bm, cfg);
  auto build = join.StoreRelation(w.build);
  auto probe = join.StoreRelation(w.probe);
  ASSERT_TRUE(build.ok() && probe.ok());
  auto r = join.Join(build.value(), probe.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_GT(r.value().recovery.victim_spills, 0u);
  const uint64_t pages_written =
      r.value().recovery.io.bytes_written / bmc.disk.page_size;
  const uint64_t allocated = bm.pool_pages_allocated();
  EXPECT_GT(allocated, 0u);
  EXPECT_GE(pages_written, 10 * allocated)
      << pages_written << " pages written, " << allocated << " allocated";
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
