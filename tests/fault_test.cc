// Fault-tolerance tests: the fault-injecting disk wrapper, checksum +
// retry recovery through the buffer manager, and the disk GRACE join's
// skew-robust overflow handling. Registered under the `faults` ctest
// label (ctest -L faults).

#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "hash/hash_func.h"
#include "join/grace_disk.h"
#include "storage/fault_injection.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

// Queues `bytes` (one page) as page `index` of `file`: copied into a
// pool buffer, which the write then takes over.
void WriteCopy(BufferManager& bm, BufferManager::FileId file, uint64_t index,
               const std::vector<uint8_t>& bytes) {
  PageBuffer page = bm.TakePage();
  std::memcpy(page.data(), bytes.data(), bm.config().disk.page_size);
  bm.WritePageAsync(file, index, std::move(page));
}

DiskConfig FastDisk() {
  DiskConfig cfg;
  cfg.bandwidth_mb_per_s = 20000;
  cfg.request_latency_us = 0;
  return cfg;
}

BufferManagerConfig FastDisks(uint32_t n) {
  BufferManagerConfig cfg;
  cfg.num_disks = n;
  cfg.disk = FastDisk();
  return cfg;
}

// ---------- FaultInjectingDisk ----------

TEST(FaultInjectingDiskTest, PassThroughWhenDisabled) {
  DiskConfig cfg = FastDisk();
  ASSERT_FALSE(cfg.fault.enabled());
  FaultInjectingDisk disk(cfg);
  std::vector<uint8_t> page(cfg.page_size, 0x42);
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  std::vector<uint8_t> got(cfg.page_size, 0);
  ASSERT_TRUE(disk.ReadPage(0, got.data()).ok());
  EXPECT_EQ(got, page);
  EXPECT_EQ(disk.injected_faults(), 0u);
}

TEST(FaultInjectingDiskTest, ScriptedOpsFailExactly) {
  DiskConfig cfg = FastDisk();
  cfg.fault.scripted_error_ops = {1, 3};
  FaultInjectingDisk disk(cfg);
  std::vector<uint8_t> page(cfg.page_size, 1);
  EXPECT_TRUE(disk.WritePage(0, page.data()).ok());   // op 0
  EXPECT_EQ(disk.WritePage(1, page.data()).code(),    // op 1
            StatusCode::kIOError);
  EXPECT_TRUE(disk.WritePage(1, page.data()).ok());   // op 2 (the retry)
  EXPECT_EQ(disk.ReadPage(0, page.data()).code(),     // op 3
            StatusCode::kIOError);
  EXPECT_TRUE(disk.ReadPage(0, page.data()).ok());    // op 4
  EXPECT_EQ(disk.injected_write_errors(), 1u);
  EXPECT_EQ(disk.injected_read_errors(), 1u);
  EXPECT_EQ(disk.injected_torn_writes(), 0u);
}

TEST(FaultInjectingDiskTest, TornWritePersistsHalfAndReportsSuccess) {
  DiskConfig cfg = FastDisk();
  cfg.fault.torn_page_rate = 1.0;
  FaultInjectingDisk disk(cfg);
  std::vector<uint8_t> page(cfg.page_size, 0x42);
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());  // lies about success
  EXPECT_EQ(disk.injected_torn_writes(), 1u);
  std::vector<uint8_t> got(cfg.page_size, 0);
  ASSERT_TRUE(disk.ReadPage(0, got.data()).ok());
  // First half persisted, second half replaced with junk.
  EXPECT_EQ(std::memcmp(got.data(), page.data(), cfg.page_size / 2), 0);
  EXPECT_NE(std::memcmp(got.data() + cfg.page_size / 2,
                        page.data() + cfg.page_size / 2,
                        cfg.page_size - cfg.page_size / 2),
            0);
}

TEST(FaultInjectingDiskTest, ConsecutiveFaultCapGuaranteesProgress) {
  DiskConfig cfg = FastDisk();
  cfg.fault.read_error_rate = 1.0;  // would fail forever without the cap
  cfg.fault.max_consecutive_faults = 2;
  FaultInjectingDisk disk(cfg);
  std::vector<uint8_t> page(cfg.page_size, 7);
  // Writes are eligible too (write_error_rate is 0, so they pass).
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  int failures_before_success = 0;
  Status st;
  do {
    st = disk.ReadPage(0, page.data());
    if (!st.ok()) ++failures_before_success;
    ASSERT_LE(failures_before_success, 2);
  } while (!st.ok());
  EXPECT_EQ(failures_before_success, 2);
}

TEST(FaultInjectingDiskTest, SameSeedSameFaultSequence) {
  DiskConfig cfg = FastDisk();
  cfg.fault.read_error_rate = 0.3;
  cfg.fault.write_error_rate = 0.3;
  cfg.fault.seed = 1234;
  FaultInjectingDisk a(cfg, /*seed_salt=*/1);
  FaultInjectingDisk b(cfg, /*seed_salt=*/1);
  std::vector<uint8_t> page(cfg.page_size, 1);
  std::vector<bool> pattern_a, pattern_b;
  for (int i = 0; i < 64; ++i) {
    pattern_a.push_back(a.WritePage(0, page.data()).ok());
    pattern_b.push_back(b.WritePage(0, page.data()).ok());
  }
  EXPECT_EQ(pattern_a, pattern_b);
  EXPECT_GT(a.injected_write_errors(), 0u);
  EXPECT_EQ(a.injected_write_errors(), b.injected_write_errors());
  // A different salt must give a different (but still seeded) sequence.
  FaultInjectingDisk c(cfg, /*seed_salt=*/2);
  std::vector<bool> pattern_c;
  for (int i = 0; i < 64; ++i) {
    pattern_c.push_back(c.WritePage(0, page.data()).ok());
  }
  EXPECT_NE(pattern_a, pattern_c);
}

// ---------- torn writes onto recycled frames ----------

// The frames already hold the very bytes the torn writes should store,
// so a tear that left a frame's old tail in place would pass the
// read-back. The injector junks the whole tail, and write verification
// catches and rewrites every tear.
TEST(RecycledFrameFaultTest, TornWriteIsStillCaughtAndRewritten) {
  const uint32_t n = 8;
  BufferManagerConfig cfg = FastDisks(1);
  std::vector<uint8_t> page(cfg.disk.page_size, 0x5a);
  {
    BufferManager first(cfg);
    auto file = first.CreateFile();
    for (uint32_t p = 0; p < n; ++p) WriteCopy(first, file, p, page);
    ASSERT_TRUE(first.FlushWrites().ok());
  }
  ASSERT_GE(SimulatedDisk::FreeFrames(cfg.disk.page_size), n);

  cfg.disk.fault.torn_page_rate = 1.0;
  cfg.disk.fault.max_consecutive_faults = 1;
  cfg.verify_writes = true;
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  for (uint32_t p = 0; p < n; ++p) WriteCopy(bm, file, p, page);
  ASSERT_TRUE(bm.FlushWrites().ok());
  IoRecoveryStats stats = bm.recovery_stats();
  EXPECT_GT(stats.injected_faults, 0u);
  EXPECT_EQ(stats.write_verify_failures, stats.injected_faults);
  auto scan = bm.OpenScan(file);
  uint32_t count = 0;
  const uint8_t* got = nullptr;
  for (;;) {
    ASSERT_TRUE(scan.NextPage(&got).ok());
    if (got == nullptr) break;
    EXPECT_EQ(std::memcmp(got, page.data(), page.size()), 0) << count;
    ++count;
  }
  EXPECT_EQ(count, n);
}

// ---------- end-to-end fault recovery through the disk join ----------

DiskJoinResult MustJoin(DiskGraceJoin& join, const JoinWorkload& w) {
  auto b = join.StoreRelation(w.build);
  auto p = join.StoreRelation(w.probe);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  auto r = join.Join(b.value(), p.value());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

TEST(FaultyDiskJoinTest, SeededFaultsRecoverToExactCleanResult) {
  WorkloadSpec spec;
  spec.num_build_tuples = 8000;
  spec.tuple_size = 100;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  // Reference run on clean disks.
  uint64_t clean_matches;
  {
    BufferManager bm(FastDisks(2));
    DiskGraceJoin join(&bm, 7);
    DiskJoinResult r = MustJoin(join, w);
    clean_matches = r.output_tuples;
    EXPECT_EQ(clean_matches, w.expected_matches);
    EXPECT_EQ(r.recovery.io.injected_faults, 0u);
  }

  // Same join under seeded transient errors and torn pages. Write
  // verification must be on: a torn page reports success, so only the
  // read-back catches it while a rewrite can still fix it.
  BufferManagerConfig cfg = FastDisks(2);
  cfg.disk.fault.read_error_rate = 0.02;
  cfg.disk.fault.write_error_rate = 0.02;
  cfg.disk.fault.torn_page_rate = 0.02;
  cfg.disk.fault.seed = 0xFA11;
  cfg.verify_writes = true;
  BufferManager bm(cfg);
  DiskGraceJoin join(&bm, 7);
  DiskJoinResult r = MustJoin(join, w);

  EXPECT_EQ(r.output_tuples, clean_matches);
  EXPECT_GT(r.recovery.io.injected_faults, 0u);
  EXPECT_GT(r.recovery.io.read_retries + r.recovery.io.write_retries, 0u);
  EXPECT_GT(r.recovery.io.write_verify_failures, 0u);  // torn pages repaired
}

TEST(FaultyDiskJoinTest, FaultRecoveryIsDeterministic) {
  WorkloadSpec spec;
  spec.num_build_tuples = 4000;
  spec.tuple_size = 100;
  spec.matches_per_build = 1.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  auto run = [&] {
    BufferManagerConfig cfg = FastDisks(2);
    cfg.disk.fault.read_error_rate = 0.05;
    cfg.disk.fault.write_error_rate = 0.05;
    cfg.disk.fault.seed = 99;
    BufferManager bm(cfg);
    DiskGraceJoin join(&bm, 5);
    return MustJoin(join, w);
  };
  DiskJoinResult r1 = run();
  DiskJoinResult r2 = run();
  EXPECT_EQ(r1.output_tuples, w.expected_matches);
  EXPECT_EQ(r2.output_tuples, w.expected_matches);
  // The injector draws its RNG per disk operation in a fixed order, so
  // two identical runs inject identical fault sequences.
  EXPECT_GT(r1.recovery.io.injected_faults, 0u);
  EXPECT_EQ(r1.recovery.io.injected_faults, r2.recovery.io.injected_faults);
  EXPECT_EQ(r1.recovery.io.read_retries, r2.recovery.io.read_retries);
  EXPECT_EQ(r1.recovery.io.write_retries, r2.recovery.io.write_retries);
}

// Tears report success, so without write verification the writes look
// fine; the join must still refuse to answer from the torn pages. With
// the buffer manager's CRC every read is checked against the page as
// queued; without it the join checks that every slot lies inside the
// page before following one, so the torn pages end the join with
// kDataLoss instead of sending its tuple loops past the frame. The
// residency mode also reads back the pages of the victims it evicts, so
// it is checked too.
void ExpectTornPagesSurfaceDataLoss(bool checksums, bool hybrid) {
  WorkloadSpec spec;
  spec.num_build_tuples = 3000;
  spec.tuple_size = 100;
  spec.matches_per_build = 1.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  BufferManagerConfig cfg = FastDisks(1);
  cfg.checksum_pages = checksums;
  cfg.disk.fault.torn_page_rate = 0.5;
  cfg.disk.fault.seed = 7;
  ASSERT_FALSE(cfg.verify_writes);
  BufferManager bm(cfg);
  DiskJoinConfig jc;
  jc.num_partitions = 4;
  jc.hybrid_residency = hybrid;
  jc.memory_budget = hybrid ? 64 * 1024 : 0;
  DiskGraceJoin join(&bm, jc);
  auto b = join.StoreRelation(w.build);
  auto p = join.StoreRelation(w.probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  if (checksums) {
    EXPECT_GT(bm.recovery_stats().checksum_failures, 0u);
  } else {
    EXPECT_EQ(bm.recovery_stats().checksum_failures, 0u);
  }
  EXPECT_GT(bm.recovery_stats().injected_faults, 0u);
}

TEST(FaultyDiskJoinTest, TornPagesWithoutWriteVerifySurfaceDataLoss) {
  ExpectTornPagesSurfaceDataLoss(/*checksums=*/true, /*hybrid=*/false);
}

TEST(FaultyDiskJoinTest, TornPagesWithoutWriteVerifySurfaceDataLossInHybrid) {
  ExpectTornPagesSurfaceDataLoss(/*checksums=*/true, /*hybrid=*/true);
}

TEST(FaultyDiskJoinTest, TornPagesWithoutAnyChecksumSurfaceDataLoss) {
  ExpectTornPagesSurfaceDataLoss(/*checksums=*/false, /*hybrid=*/false);
}

TEST(FaultyDiskJoinTest, TornPagesWithoutAnyChecksumSurfaceDataLossInHybrid) {
  ExpectTornPagesSurfaceDataLoss(/*checksums=*/false, /*hybrid=*/true);
}

// ---------- skew-robust overflow handling ----------

// Builds a relation of `n` unique-keyed 100-byte tuples where at least
// 90% of keys land in partition 0 of a `parts`-way split (the rest are
// spread normally), by rejection-sampling keys on HashKey32.
Relation SkewedRelation(uint64_t n, uint32_t parts,
                        std::vector<uint32_t>* keys_out) {
  Relation rel(Schema::KeyPayload(100));
  uint64_t hot = n * 9 / 10;
  uint32_t candidate = 1;
  std::vector<uint8_t> tuple(100, 0);
  for (uint64_t i = 0; i < n; ++i) {
    bool want_hot = i < hot;
    while ((HashKey32(candidate) % parts == 0) != want_hot) ++candidate;
    std::memcpy(tuple.data(), &candidate, 4);
    rel.Append(tuple.data(), 100, HashKey32(candidate));
    if (keys_out != nullptr) keys_out->push_back(candidate);
    ++candidate;
  }
  return rel;
}

TEST(SkewedDiskJoinTest, RecursiveRepartitioningStaysWithinBudget) {
  const uint32_t parts = 4;
  std::vector<uint32_t> keys;
  Relation build = SkewedRelation(4000, parts, &keys);
  // Probe with the same keys: unique on both sides -> 4000 matches.
  Relation probe = SkewedRelation(4000, parts, nullptr);

  BufferManager bm(FastDisks(2));
  DiskJoinConfig cfg;
  cfg.num_partitions = parts;
  cfg.memory_budget = 128 * 1024;
  cfg.overflow_fanout = 8;
  cfg.max_recursion_depth = 4;
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(build);
  auto p = join.StoreRelation(probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r.value().output_tuples, 4000u);
  // The hot partition exceeded the budget and was recursively split; no
  // in-memory build was ever allowed past the budget.
  EXPECT_GT(r.value().recovery.recursive_splits, 0u);
  EXPECT_GE(r.value().recovery.deepest_recursion, 1u);
  EXPECT_EQ(r.value().recovery.chunked_fallbacks, 0u);
  EXPECT_LE(r.value().recovery.max_build_bytes, cfg.memory_budget);
}

TEST(SkewedDiskJoinTest, IdenticalKeysFallBackToBlockNestedLoop) {
  // One giant key: salted rehash cannot split it (every copy shares the
  // hash code), so the join must not burn recursion levels. And because
  // every chunk's hash table would degenerate to a single chain, the
  // ladder's last rung — block nested loop — beats the chunked build.
  // Both sides are over the budget, so role reversal cannot fit either
  // one in memory.
  const uint32_t kKey = 12345;
  Relation build(Schema::KeyPayload(100));
  Relation probe(Schema::KeyPayload(100));
  std::vector<uint8_t> tuple(100, 0);
  std::memcpy(tuple.data(), &kKey, 4);
  for (int i = 0; i < 2000; ++i) {
    build.Append(tuple.data(), 100, HashKey32(kKey));
  }
  for (int i = 0; i < 1000; ++i) {
    probe.Append(tuple.data(), 100, HashKey32(kKey));
  }

  BufferManager bm(FastDisks(2));
  DiskJoinConfig cfg;
  cfg.num_partitions = 4;
  cfg.memory_budget = 64 * 1024;
  cfg.max_recursion_depth = 4;
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(build);
  auto p = join.StoreRelation(probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r.value().output_tuples, 2000u * 1000u);  // full cross product
  EXPECT_EQ(r.value().recovery.recursive_splits, 0u);  // no progress
  EXPECT_EQ(r.value().recovery.chunked_fallbacks, 0u);
  EXPECT_GT(r.value().recovery.bnl_fallbacks, 0u);
}

TEST(SkewedDiskJoinTest, DepthCapZeroGoesStraightToChunked) {
  const uint32_t parts = 4;
  Relation build = SkewedRelation(3000, parts, nullptr);
  Relation probe = SkewedRelation(3000, parts, nullptr);

  BufferManager bm(FastDisks(1));
  DiskJoinConfig cfg;
  cfg.num_partitions = parts;
  cfg.memory_budget = 96 * 1024;
  cfg.max_recursion_depth = 0;  // recursion disabled entirely
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(build);
  auto p = join.StoreRelation(probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r.value().output_tuples, 3000u);
  EXPECT_EQ(r.value().recovery.recursive_splits, 0u);
  EXPECT_EQ(r.value().recovery.deepest_recursion, 0u);
  EXPECT_GT(r.value().recovery.chunked_fallbacks, 0u);
}

TEST(SkewedDiskJoinTest, FaultsAndSkewTogetherStillJoinExactly) {
  // The two recovery layers compose: transient I/O faults during the
  // extra recursion passes are retried like any other I/O.
  const uint32_t parts = 4;
  Relation build = SkewedRelation(3000, parts, nullptr);
  Relation probe = SkewedRelation(3000, parts, nullptr);

  BufferManagerConfig bmc = FastDisks(2);
  bmc.disk.fault.read_error_rate = 0.02;
  bmc.disk.fault.write_error_rate = 0.02;
  bmc.disk.fault.seed = 31337;
  BufferManager bm(bmc);
  DiskJoinConfig cfg;
  cfg.num_partitions = parts;
  cfg.memory_budget = 128 * 1024;
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(build);
  auto p = join.StoreRelation(probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(r.value().output_tuples, 3000u);
  EXPECT_GT(r.value().recovery.io.injected_faults, 0u);
  EXPECT_GT(r.value().recovery.recursive_splits, 0u);
  EXPECT_LE(r.value().recovery.max_build_bytes, cfg.memory_budget);
}

}  // namespace
}  // namespace hashjoin
