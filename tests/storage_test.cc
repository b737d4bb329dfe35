#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/slotted_page.h"
#include "util/aligned.h"

namespace hashjoin {
namespace {

TEST(SchemaTest, KeyPayloadLayout) {
  Schema s = Schema::KeyPayload(100);
  EXPECT_EQ(s.num_attrs(), 2u);
  EXPECT_EQ(s.attr(0).name, "key");
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 4u);
  EXPECT_EQ(s.fixed_size(), 100u);
  EXPECT_FALSE(s.has_varlen());
}

TEST(SchemaTest, MixedTypesOffsets) {
  Schema s({{"a", AttrType::kInt64, 8},
            {"b", AttrType::kInt32, 4},
            {"c", AttrType::kFixedChar, 10},
            {"d", AttrType::kVarChar, 100}});
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 12u);
  EXPECT_EQ(s.offset(3), 22u);
  EXPECT_EQ(s.fixed_size(), 26u);
  EXPECT_TRUE(s.has_varlen());
}

TEST(SchemaTest, FindAttr) {
  Schema s = Schema::KeyPayload(20);
  EXPECT_EQ(s.FindAttr("key"), 0);
  EXPECT_EQ(s.FindAttr("payload"), 1);
  EXPECT_EQ(s.FindAttr("missing"), -1);
}

TEST(SlottedPageTest, FormatAndFill) {
  std::vector<uint8_t> buf(1024);
  SlottedPage page = SlottedPage::Format(buf.data(), 1024);
  EXPECT_EQ(page.slot_count(), 0);
  EXPECT_EQ(page.page_size(), 1024u);

  const char* t1 = "hello tuple one";
  int s1 = page.AddTuple(t1, 16, 0xabcd);
  ASSERT_EQ(s1, 0);
  uint16_t len = 0;
  const uint8_t* got = page.GetTuple(0, &len);
  EXPECT_EQ(len, 16);
  EXPECT_EQ(std::memcmp(got, t1, 16), 0);
  EXPECT_EQ(page.GetHashCode(0), 0xabcdu);
}

TEST(SlottedPageTest, FillsUntilFull) {
  std::vector<uint8_t> buf(1024);
  SlottedPage page = SlottedPage::Format(buf.data(), 1024);
  char tuple[100] = {0};
  int added = 0;
  while (page.AddTuple(tuple, 100, 0) >= 0) ++added;
  // 1024 bytes: 16 header + n*(100 + 8 slot) -> n = 9.
  EXPECT_EQ(added, 9);
  EXPECT_EQ(page.slot_count(), 9);
}

TEST(SlottedPageTest, TuplesDoNotOverlap) {
  std::vector<uint8_t> buf(2048);
  SlottedPage page = SlottedPage::Format(buf.data(), 2048);
  for (int i = 0; i < 10; ++i) {
    uint8_t tuple[64];
    std::memset(tuple, i, sizeof(tuple));
    ASSERT_GE(page.AddTuple(tuple, 64, uint32_t(i)), 0);
  }
  for (int i = 0; i < 10; ++i) {
    uint16_t len;
    const uint8_t* t = page.GetTuple(i, &len);
    ASSERT_EQ(len, 64);
    for (int b = 0; b < 64; ++b) ASSERT_EQ(t[b], uint8_t(i));
    EXPECT_EQ(page.GetHashCode(i), uint32_t(i));
  }
}

TEST(SlottedPageTest, SetHashCode) {
  std::vector<uint8_t> buf(512);
  SlottedPage page = SlottedPage::Format(buf.data(), 512);
  char t[8] = {0};
  page.AddTuple(t, 8, 0);
  page.SetHashCode(0, 77);
  EXPECT_EQ(page.GetHashCode(0), 77u);
}

TEST(SlottedPageTest, ChecksumRoundTrips) {
  std::vector<uint8_t> buf(1024);
  SlottedPage page = SlottedPage::Format(buf.data(), 1024);
  char t[32] = "some tuple bytes";
  page.AddTuple(t, 32, 0x1234);
  page.StampChecksum();
  EXPECT_TRUE(page.VerifyChecksum(1024));
  // Stamping must not change what is summed: re-stamp is a fixed point.
  uint32_t first = page.ComputeChecksum();
  page.StampChecksum();
  EXPECT_EQ(page.ComputeChecksum(), first);
  EXPECT_TRUE(page.VerifyChecksum(1024));
}

TEST(SlottedPageTest, ChecksumDetectsCorruption) {
  std::vector<uint8_t> buf(1024);
  SlottedPage page = SlottedPage::Format(buf.data(), 1024);
  char t[16] = {0};
  page.AddTuple(t, 16, 7);
  page.StampChecksum();
  ASSERT_TRUE(page.VerifyChecksum(1024));
  buf[600] ^= 0x01;  // single bit flip in the free area
  EXPECT_FALSE(page.VerifyChecksum(1024));
  buf[600] ^= 0x01;
  EXPECT_TRUE(page.VerifyChecksum(1024));
  // Mutating after the stamp (the footgun the API comment warns about)
  // is also caught.
  page.AddTuple(t, 16, 8);
  EXPECT_FALSE(page.VerifyChecksum(1024));
}

TEST(SlottedPageTest, ChecksumRejectsSizeFieldDisagreeingWithFrame) {
  // A page read back from storage carries its own size field. Summing
  // that many bytes would overrun the frame (4x) or wrap around (below
  // the 12 header bytes before the checksum field), so verification
  // must reject a size that disagrees with the frame before it sums.
  constexpr uint32_t kFrame = 8192;
  for (uint32_t bad_size : {0u, 11u, 4 * kFrame}) {
    std::vector<uint8_t> buf(kFrame);
    SlottedPage page = SlottedPage::Format(buf.data(), kFrame);
    char t[24] = "tuple";
    page.AddTuple(t, sizeof(t), 3);
    page.StampChecksum();
    ASSERT_TRUE(page.VerifyChecksum(kFrame));
    EXPECT_FALSE(page.VerifyChecksum(kFrame / 2)) << "wrong frame";
    std::memcpy(buf.data() + offsetof(SlottedPage::PageHeader, page_size),
                &bad_size, sizeof(bad_size));
    EXPECT_FALSE(page.VerifyChecksum(kFrame)) << bad_size;
  }
}

TEST(SlottedPageTest, AllocTupleGivesWritablePointer) {
  std::vector<uint8_t> buf(512);
  SlottedPage page = SlottedPage::Format(buf.data(), 512);
  int idx = -1;
  uint8_t* dst = page.AllocTuple(32, 5, &idx);
  ASSERT_NE(dst, nullptr);
  EXPECT_EQ(idx, 0);
  std::memset(dst, 0x5a, 32);
  uint16_t len;
  EXPECT_EQ(page.GetTuple(0, &len), dst);
}

TEST(RelationTest, AppendAcrossPages) {
  Relation rel(Schema::KeyPayload(100), 1024);
  std::vector<uint8_t> tuple(100, 1);
  for (int i = 0; i < 100; ++i) rel.Append(tuple.data(), 100, uint32_t(i));
  EXPECT_EQ(rel.num_tuples(), 100u);
  EXPECT_EQ(rel.data_bytes(), 10000u);
  // 9 tuples per 1KB page -> ceil(100/9) = 12 pages.
  EXPECT_EQ(rel.num_pages(), 12u);
}

TEST(RelationTest, ForEachTupleVisitsAllInOrder) {
  Relation rel(Schema::KeyPayload(16), 512);
  for (uint32_t i = 0; i < 50; ++i) {
    uint8_t tuple[16];
    std::memcpy(tuple, &i, 4);
    std::memset(tuple + 4, 0, 12);
    rel.Append(tuple, 16, i * 2);
  }
  uint32_t expect = 0;
  rel.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t hash) {
    uint32_t key;
    std::memcpy(&key, t, 4);
    EXPECT_EQ(key, expect);
    EXPECT_EQ(len, 16);
    EXPECT_EQ(hash, expect * 2);
    ++expect;
  });
  EXPECT_EQ(expect, 50u);
}

TEST(RelationTest, AdoptPageAccountsTuples) {
  Relation rel(Schema::KeyPayload(16), 512);
  void* raw = AlignedAlloc(512, 512);
  SlottedPage pg = SlottedPage::Format(raw, 512);
  char t[16] = {0};
  pg.AddTuple(t, 16, 1);
  pg.AddTuple(t, 16, 2);
  rel.AdoptPage(AlignedBuffer<uint8_t>(static_cast<uint8_t*>(raw)),
                SlotHashes::kMemoized);
  EXPECT_EQ(rel.num_tuples(), 2u);
  EXPECT_EQ(rel.data_bytes(), 32u);
  EXPECT_EQ(rel.num_pages(), 1u);
}

TEST(RelationTest, AdoptPageKeepsAppendPageLast) {
  Relation rel(Schema::KeyPayload(16), 512);
  char t[16] = {1};
  rel.Append(t, 16, 0);  // opens an append page
  const uint8_t* tail_before = rel.PeekAppendAddr();

  void* raw = AlignedAlloc(512, 512);
  SlottedPage pg = SlottedPage::Format(raw, 512);
  pg.AddTuple(t, 16, 0);
  rel.AdoptPage(AlignedBuffer<uint8_t>(static_cast<uint8_t*>(raw)),
                SlotHashes::kMemoized);

  EXPECT_EQ(rel.PeekAppendAddr(), tail_before);
  rel.Append(t, 16, 0);
  EXPECT_EQ(rel.num_tuples(), 3u);
}

TEST(RelationTest, PeekAppendAddrMatchesNextAlloc) {
  Relation rel(Schema::KeyPayload(16), 512);
  char t[16] = {0};
  rel.Append(t, 16, 0);
  const uint8_t* peek = rel.PeekAppendAddr();
  uint8_t* dst = rel.AllocAppend(16, 0);
  EXPECT_EQ(dst, peek);
}

TEST(RelationTest, ClearReleasesEverything) {
  Relation rel(Schema::KeyPayload(16), 512);
  char t[16] = {0};
  rel.Append(t, 16, 0);
  rel.Clear();
  EXPECT_EQ(rel.num_tuples(), 0u);
  EXPECT_EQ(rel.num_pages(), 0u);
  EXPECT_EQ(rel.PeekAppendAddr(), nullptr);
}

TEST(RelationTest, TracksWhetherEverySlotHoldsAHashCode) {
  const Schema schema = Schema::KeyPayload(16);
  char t[16] = {0};
  Relation coded(schema, 512);
  EXPECT_TRUE(coded.has_hash_codes());  // vacuously, while empty
  for (uint32_t i = 0; i < 40; ++i) coded.Append(t, 16, i);
  EXPECT_TRUE(coded.has_hash_codes());
  EXPECT_TRUE(coded.CopyPages(0, coded.num_pages()).has_hash_codes());

  // One append without a code clears the state for good.
  Relation mixed = coded.CopyPages(0, coded.num_pages());
  mixed.Append(t, 16, kNoHashCode);
  EXPECT_FALSE(mixed.has_hash_codes());
  mixed.Append(t, 16, 7);
  EXPECT_FALSE(mixed.has_hash_codes());
  EXPECT_FALSE(mixed.CopyPages(0, mixed.num_pages()).has_hash_codes());

  // Pages carry their own state; absorbing one without codes clears it.
  Relation paged(schema, 512);
  paged.AppendCopiedPage(coded.page(0).data(), SlotHashes::kMemoized);
  EXPECT_TRUE(paged.has_hash_codes());
  Relation uncoded(schema, 512);
  uncoded.AppendCopiedPage(coded.page(1).data(), SlotHashes::kNone);
  EXPECT_FALSE(uncoded.has_hash_codes());
  paged.Absorb(&uncoded);
  EXPECT_FALSE(paged.has_hash_codes());
  EXPECT_TRUE(uncoded.has_hash_codes());  // emptied by Absorb
  paged.Clear();
  EXPECT_TRUE(paged.has_hash_codes());
}

TEST(RelationTest, CopyPagesDuplicatesPagesAndCounts) {
  Relation rel(Schema::KeyPayload(16), 512);
  char t[16] = {0};
  for (uint32_t i = 0; i < 100; ++i) {
    std::memcpy(t, &i, sizeof(i));
    rel.Append(t, 16, i);
  }
  Relation copy = rel.CopyPages(0, rel.num_pages());
  ASSERT_EQ(copy.num_pages(), rel.num_pages());
  EXPECT_EQ(copy.num_tuples(), rel.num_tuples());
  EXPECT_EQ(copy.data_bytes(), rel.data_bytes());
  for (size_t p = 0; p < rel.num_pages(); ++p) {
    EXPECT_NE(copy.page(p).data(), rel.page(p).data());
    EXPECT_EQ(std::memcmp(copy.page(p).data(), rel.page(p).data(), 512), 0);
  }

  Relation slice = rel.CopyPages(1, 3);
  ASSERT_EQ(slice.num_pages(), 2u);
  EXPECT_EQ(slice.num_tuples(),
            uint64_t(rel.page(1).slot_count() + rel.page(2).slot_count()));
  EXPECT_EQ(std::memcmp(slice.page(0).data(), rel.page(1).data(), 512), 0);
}

TEST(SimulatedDiskTest, WriteThenReadRoundTrips) {
  DiskConfig cfg;
  cfg.bandwidth_mb_per_s = 10000;  // fast for tests
  cfg.request_latency_us = 0;
  SimulatedDisk disk(cfg);
  std::vector<uint8_t> page(cfg.page_size, 0x77);
  ASSERT_TRUE(disk.WritePage(3, page.data()).ok());
  std::vector<uint8_t> got(cfg.page_size, 0);
  ASSERT_TRUE(disk.ReadPage(3, got.data()).ok());
  EXPECT_EQ(got, page);
  EXPECT_GE(disk.num_pages(), 4u);
}

TEST(SimulatedDiskTest, ReadPastEndFails) {
  DiskConfig cfg;
  cfg.bandwidth_mb_per_s = 10000;
  cfg.request_latency_us = 0;
  SimulatedDisk disk(cfg);
  std::vector<uint8_t> buf(cfg.page_size);
  EXPECT_EQ(disk.ReadPage(0, buf.data()).code(), StatusCode::kOutOfRange);
}

TEST(SimulatedDiskTest, TracksBusyTime) {
  DiskConfig cfg;
  cfg.bandwidth_mb_per_s = 100;
  cfg.request_latency_us = 10;
  SimulatedDisk disk(cfg);
  std::vector<uint8_t> page(cfg.page_size, 1);
  ASSERT_TRUE(disk.WritePage(0, page.data()).ok());
  EXPECT_GT(disk.busy_seconds(), 0.0);
}

// Frames of destroyed disks are recycled, and the free list only ever
// receives frames some disk allocated: it never holds more than were
// live at once. The page size is used by no other test, so the list
// starts empty.
TEST(SimulatedDiskTest, FreeListNeverHoldsMoreThanThePeakLiveFrames) {
  DiskConfig cfg;
  cfg.bandwidth_mb_per_s = 10000;
  cfg.request_latency_us = 0;
  cfg.page_size = 2048;
  std::vector<uint8_t> page(cfg.page_size, 0x31);
  auto disk_of = [&](uint64_t pages) {
    auto d = std::make_unique<SimulatedDisk>(cfg);
    for (uint64_t p = 0; p < pages; ++p) {
      EXPECT_TRUE(d->WritePage(p, page.data()).ok());
    }
    return d;
  };
  ASSERT_EQ(SimulatedDisk::FreeFrames(cfg.page_size), 0u);
  auto a = disk_of(10);
  auto b = disk_of(5);  // 15 live
  a.reset();
  EXPECT_EQ(SimulatedDisk::FreeFrames(cfg.page_size), 10u);
  auto c = disk_of(12);  // takes all 10, allocates 2: 17 live, the peak
  EXPECT_EQ(SimulatedDisk::FreeFrames(cfg.page_size), 0u);
  b.reset();
  c.reset();
  EXPECT_EQ(SimulatedDisk::FreeFrames(cfg.page_size), 17u);
  for (uint64_t pages : {3u, 17u, 9u}) {
    disk_of(pages).reset();
    EXPECT_EQ(SimulatedDisk::FreeFrames(cfg.page_size), 17u);
  }
}

TEST(SimulatedDiskTest, RecycledFramesExposeNoOldBytes) {
  DiskConfig cfg;
  cfg.bandwidth_mb_per_s = 10000;
  cfg.request_latency_us = 0;
  cfg.page_size = 1024;
  std::vector<uint8_t> old_bytes(cfg.page_size, 0xee);
  {
    SimulatedDisk first(cfg);
    for (uint64_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(first.WritePage(p, old_bytes.data()).ok());
    }
  }
  ASSERT_EQ(SimulatedDisk::FreeFrames(cfg.page_size), 4u);
  SimulatedDisk disk(cfg);
  std::vector<uint8_t> buf(cfg.page_size);
  // Nothing written yet: every page is past the end.
  EXPECT_EQ(disk.ReadPage(0, buf.data()).code(), StatusCode::kOutOfRange);
  // A sparse write zeroes the recycled frames it skips.
  std::vector<uint8_t> page(cfg.page_size, 0x42);
  ASSERT_TRUE(disk.WritePage(2, page.data()).ok());
  EXPECT_EQ(SimulatedDisk::FreeFrames(cfg.page_size), 1u);
  ASSERT_TRUE(disk.ReadPage(0, buf.data()).ok());
  EXPECT_EQ(buf, std::vector<uint8_t>(cfg.page_size, 0));
  ASSERT_TRUE(disk.ReadPage(2, buf.data()).ok());
  EXPECT_EQ(buf, page);
  EXPECT_EQ(disk.ReadPage(3, buf.data()).code(), StatusCode::kOutOfRange);
}

class BufferManagerTest : public ::testing::Test {
 protected:
  BufferManagerConfig FastConfig(uint32_t disks) {
    BufferManagerConfig cfg;
    cfg.num_disks = disks;
    cfg.disk.bandwidth_mb_per_s = 20000;
    cfg.disk.request_latency_us = 0;
    cfg.stripe_unit_pages = 4;
    cfg.io_prefetch_depth = 4;
    return cfg;
  }

  // Advances a scan one page, asserting the I/O itself succeeded.
  static const uint8_t* MustNext(BufferManager::Scanner& scan) {
    const uint8_t* page = nullptr;
    Status st = scan.NextPage(&page);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return page;
  }
};

TEST_F(BufferManagerTest, WriteThenScanRoundTrips) {
  BufferManager bm(FastConfig(3));
  auto file = bm.CreateFile();
  const uint32_t n = 64;
  std::vector<uint8_t> page(bm.config().disk.page_size);
  for (uint32_t p = 0; p < n; ++p) {
    std::memset(page.data(), int(p), page.size());
    bm.WritePageAsync(file, p, page.data());
  }
  ASSERT_TRUE(bm.FlushWrites().ok());
  EXPECT_EQ(bm.FileNumPages(file), n);

  auto scan = bm.OpenScan(file);
  for (uint32_t p = 0; p < n; ++p) {
    const uint8_t* got = MustNext(scan);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got[0], uint8_t(p)) << "page " << p;
    EXPECT_EQ(got[100], uint8_t(p));
  }
  EXPECT_EQ(MustNext(scan), nullptr);
}

TEST_F(BufferManagerTest, MultipleFilesIndependent) {
  BufferManager bm(FastConfig(2));
  auto f1 = bm.CreateFile();
  auto f2 = bm.CreateFile();
  std::vector<uint8_t> page(bm.config().disk.page_size);
  std::memset(page.data(), 0x11, page.size());
  bm.WritePageAsync(f1, 0, page.data());
  std::memset(page.data(), 0x22, page.size());
  bm.WritePageAsync(f2, 0, page.data());
  ASSERT_TRUE(bm.FlushWrites().ok());
  auto s1 = bm.OpenScan(f1);
  auto s2 = bm.OpenScan(f2);
  EXPECT_EQ(MustNext(s1)[0], 0x11);
  EXPECT_EQ(MustNext(s2)[0], 0x22);
}

TEST_F(BufferManagerTest, EmptyFileScanReturnsNull) {
  BufferManager bm(FastConfig(1));
  auto file = bm.CreateFile();
  auto scan = bm.OpenScan(file);
  EXPECT_EQ(MustNext(scan), nullptr);
}

TEST_F(BufferManagerTest, StripesAcrossDisks) {
  BufferManagerConfig cfg = FastConfig(4);
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size, 1);
  // 32 pages over 4 disks with 4-page stripes: 8 pages per disk.
  for (uint32_t p = 0; p < 32; ++p) bm.WritePageAsync(file, p, page.data());
  ASSERT_TRUE(bm.FlushWrites().ok());
  // All pages must read back; striping itself is internal, but busy time
  // should be spread (max per-disk busy < total would be with 1 disk).
  auto scan = bm.OpenScan(file);
  int count = 0;
  while (MustNext(scan) != nullptr) ++count;
  EXPECT_EQ(count, 32);
}

TEST_F(BufferManagerTest, TracksMainStall) {
  BufferManagerConfig cfg = FastConfig(1);
  cfg.disk.bandwidth_mb_per_s = 50;  // slow enough to cause waits
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size, 1);
  for (uint32_t p = 0; p < 16; ++p) bm.WritePageAsync(file, p, page.data());
  ASSERT_TRUE(bm.FlushWrites().ok());
  auto scan = bm.OpenScan(file);
  while (MustNext(scan) != nullptr) {
  }
  EXPECT_GT(bm.main_stall_seconds(), 0.0);
  EXPECT_GT(bm.max_disk_busy_seconds(), 0.0);
}

// Fewer writes than a stripe unit never wake an idle worker on their
// own; FlushWrites must (without that wake-up it waits forever).
TEST_F(BufferManagerTest, FlushWakesWorkerForLessThanAStripeOfWrites) {
  BufferManagerConfig cfg = FastConfig(2);
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size);
  ASSERT_LT(3u, cfg.stripe_unit_pages);
  // Let both workers start and go idle first.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (uint32_t p = 0; p < 3; ++p) {
    std::memset(page.data(), int(p + 7), page.size());
    bm.WritePageAsync(file, p, page.data());
  }
  ASSERT_TRUE(bm.FlushWrites().ok());
  EXPECT_EQ(bm.recovery_stats().bytes_written, 3u * cfg.disk.page_size);
  auto scan = bm.OpenScan(file);
  for (uint32_t p = 0; p < 3; ++p) {
    const uint8_t* got = MustNext(scan);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got[0], uint8_t(p + 7));
    EXPECT_EQ(got[cfg.disk.page_size - 1], uint8_t(p + 7));
  }
  EXPECT_EQ(MustNext(scan), nullptr);
}

// A scan's reads queue behind the file's own queued writes on each
// disk, so it sees them without a FlushWrites.
TEST_F(BufferManagerTest, ScanOfQueuedWritesReadsTheirBytes) {
  for (uint32_t n : {3u, 11u}) {  // below and above a stripe unit
    SCOPED_TRACE(n);
    BufferManagerConfig cfg = FastConfig(2);
    BufferManager bm(cfg);
    auto file = bm.CreateFile();
    std::vector<uint8_t> page(cfg.disk.page_size);
    // Idle workers leave writes below a stripe unit queued.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (uint32_t p = 0; p < n; ++p) {
      std::memset(page.data(), int(p + 1), page.size());
      bm.WritePageAsync(file, p, page.data());
    }
    auto scan = bm.OpenScan(file);
    for (uint32_t p = 0; p < n; ++p) {
      const uint8_t* got = MustNext(scan);
      ASSERT_NE(got, nullptr);
      std::memset(page.data(), int(p + 1), page.size());
      EXPECT_EQ(std::memcmp(got, page.data(), page.size()), 0) << p;
    }
    EXPECT_EQ(MustNext(scan), nullptr);
    EXPECT_TRUE(bm.FlushWrites().ok());
  }
}

// The destructor lets each worker serve its queue, so writes still
// queued (below a stripe unit, worker asleep) reach the disk, whose
// frames then land in the free list. The page size is this test's own.
TEST_F(BufferManagerTest, DestroyedWithQueuedWritesServesThemAndReturns) {
  BufferManagerConfig cfg = FastConfig(1);
  cfg.disk.page_size = 3072;
  ASSERT_EQ(SimulatedDisk::FreeFrames(cfg.disk.page_size), 0u);
  {
    BufferManager bm(cfg);
    auto file = bm.CreateFile();
    std::vector<uint8_t> page(cfg.disk.page_size, 0x6b);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // idle
    for (uint32_t p = 0; p < 3; ++p) bm.WritePageAsync(file, p, page.data());
  }
  EXPECT_EQ(SimulatedDisk::FreeFrames(cfg.disk.page_size), 3u);
}

TEST_F(BufferManagerTest, ScannerDestroyedMidFileWaitsOutItsReads) {
  BufferManagerConfig cfg = FastConfig(2);
  cfg.disk.bandwidth_mb_per_s = 20;  // ~0.4 ms a page: reads stay queued
  cfg.io_prefetch_depth = 16;
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size);
  const uint32_t n = 40;
  for (uint32_t p = 0; p < n; ++p) {
    std::memset(page.data(), int(p), page.size());
    bm.WritePageAsync(file, p, page.data());
  }
  ASSERT_TRUE(bm.FlushWrites().ok());
  {
    auto scan = bm.OpenScan(file);
    const uint8_t* got = MustNext(scan);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got[0], 0);
  }  // abandoned with reads in flight
  auto scan = bm.OpenScan(file);
  uint32_t count = 0;
  while (const uint8_t* got = MustNext(scan)) {
    EXPECT_EQ(got[0], uint8_t(count));
    ++count;
  }
  EXPECT_EQ(count, n);
}

// A BufferManager whose disks draw the previous one's frames reads back
// only what it wrote itself.
TEST_F(BufferManagerTest, RecycledFramesHoldOnlyTheNewManagersBytes) {
  BufferManagerConfig cfg = FastConfig(1);
  cfg.disk.page_size = 4096;
  {
    BufferManager first(cfg);
    auto file = first.CreateFile();
    std::vector<uint8_t> page(cfg.disk.page_size, 0xaa);
    for (uint32_t p = 0; p < 8; ++p) first.WritePageAsync(file, p, page.data());
    ASSERT_TRUE(first.FlushWrites().ok());
  }
  ASSERT_EQ(SimulatedDisk::FreeFrames(cfg.disk.page_size), 8u);
  BufferManager second(cfg);
  auto file = second.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size);
  for (uint32_t p = 0; p < 5; ++p) {
    std::iota(page.begin(), page.end(), uint8_t(p));
    second.WritePageAsync(file, p, page.data());
  }
  ASSERT_TRUE(second.FlushWrites().ok());
  EXPECT_EQ(SimulatedDisk::FreeFrames(cfg.disk.page_size), 3u);
  auto scan = second.OpenScan(file);
  for (uint32_t p = 0; p < 5; ++p) {
    const uint8_t* got = MustNext(scan);
    ASSERT_NE(got, nullptr);
    std::iota(page.begin(), page.end(), uint8_t(p));
    EXPECT_EQ(std::memcmp(got, page.data(), page.size()), 0) << p;
  }
  EXPECT_EQ(MustNext(scan), nullptr);
}

TEST_F(BufferManagerTest, ScriptedReadFaultIsRetriedTransparently) {
  BufferManagerConfig cfg = FastConfig(1);
  // Fail read ops by exact index: writes come first (ops 0..3), so the
  // scripted indices land on the read-back phase regardless of timing —
  // the op counter is shared across reads and writes on the one disk.
  cfg.disk.fault.scripted_error_ops = {4, 6};
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size);
  for (uint32_t p = 0; p < 4; ++p) {
    std::memset(page.data(), int(p + 1), page.size());
    bm.WritePageAsync(file, p, page.data());
  }
  ASSERT_TRUE(bm.FlushWrites().ok());
  auto scan = bm.OpenScan(file);
  for (uint32_t p = 0; p < 4; ++p) {
    const uint8_t* got = MustNext(scan);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got[0], uint8_t(p + 1));
  }
  IoRecoveryStats stats = bm.recovery_stats();
  EXPECT_EQ(stats.read_retries, 2u);
  EXPECT_EQ(stats.injected_faults, 2u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

TEST_F(BufferManagerTest, ProbabilisticFaultsRecoverDeterministically) {
  BufferManagerConfig cfg = FastConfig(2);
  cfg.disk.fault.read_error_rate = 0.2;
  cfg.disk.fault.write_error_rate = 0.2;
  cfg.disk.fault.seed = 42;
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size);
  const uint32_t n = 32;
  for (uint32_t p = 0; p < n; ++p) {
    std::memset(page.data(), int(p), page.size());
    bm.WritePageAsync(file, p, page.data());
  }
  ASSERT_TRUE(bm.FlushWrites().ok());
  auto scan = bm.OpenScan(file);
  for (uint32_t p = 0; p < n; ++p) {
    const uint8_t* got = MustNext(scan);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got[0], uint8_t(p));
  }
  EXPECT_EQ(MustNext(scan), nullptr);
  IoRecoveryStats stats = bm.recovery_stats();
  EXPECT_GT(stats.injected_faults, 0u);
  EXPECT_GT(stats.read_retries + stats.write_retries, 0u);
}

TEST_F(BufferManagerTest, TornWriteIsCaughtByWriteVerify) {
  BufferManagerConfig cfg = FastConfig(1);
  cfg.disk.fault.torn_page_rate = 1.0;  // every eligible write tears
  cfg.disk.fault.max_consecutive_faults = 1;  // every other one, really
  cfg.verify_writes = true;
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size, 0x5a);
  for (uint32_t p = 0; p < 4; ++p) bm.WritePageAsync(file, p, page.data());
  ASSERT_TRUE(bm.FlushWrites().ok());
  IoRecoveryStats stats = bm.recovery_stats();
  EXPECT_GT(stats.write_verify_failures, 0u);
  // Read everything back clean: the rewrites repaired every torn page.
  auto scan = bm.OpenScan(file);
  while (const uint8_t* got = MustNext(scan)) {
    EXPECT_EQ(got[0], 0x5a);
    EXPECT_EQ(got[cfg.disk.page_size - 1], 0x5a);
  }
}

TEST_F(BufferManagerTest, TornWriteWithoutVerifySurfacesDataLoss) {
  BufferManagerConfig cfg = FastConfig(1);
  cfg.disk.fault.torn_page_rate = 1.0;
  cfg.disk.fault.max_consecutive_faults = 1;
  ASSERT_FALSE(cfg.verify_writes);  // checksum-on-read is the only net
  BufferManager bm(cfg);
  auto file = bm.CreateFile();
  std::vector<uint8_t> page(cfg.disk.page_size, 0x5a);
  for (uint32_t p = 0; p < 4; ++p) bm.WritePageAsync(file, p, page.data());
  // The tear reports success, so the write path is clean...
  ASSERT_TRUE(bm.FlushWrites().ok());
  // ...and the damage is only detectable when the page is read back:
  // its stored bytes are wrong, so retrying cannot fix it -> kDataLoss.
  auto scan = bm.OpenScan(file);
  const uint8_t* got = nullptr;
  Status st;
  for (uint32_t p = 0; p < 4 && st.ok(); ++p) st = scan.NextPage(&got);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_GT(bm.recovery_stats().checksum_failures, 0u);
}

}  // namespace
}  // namespace hashjoin
