#include "join/grace_disk.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "hash/hash_func.h"
#include "hash/hash_table.h"
#include "join/grace.h"
#include "storage/slotted_page.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hashjoin {

namespace {

/// Probes one slot of a partition page against the build table, counting
/// key matches. Shared by every execution policy below, so the policies
/// differ only in prefetch scheduling, never in what a probe observes.
inline void ProbeSlotCounting(const HashTable& ht, SlottedPage& pg, int s,
                              uint64_t* matches) {
  uint16_t len;
  const uint8_t* t = pg.GetTuple(s, &len);
  uint32_t key;
  std::memcpy(&key, t, 4);
  ht.Probe(pg.GetHashCode(s), [&](const uint8_t* bt) {
    uint32_t bkey;
    std::memcpy(&bkey, bt, 4);
    if (bkey == key) ++*matches;
  });
}

inline const BucketHeader* SlotBucket(const HashTable& ht,
                                      const SlottedPage& pg, int s) {
  return ht.bucket(ht.BucketIndex(pg.GetHashCode(s)));
}

#if HASHJOIN_HAS_COROUTINES
/// One probe chain over the page's slots: hash/prefetch, suspend, probe.
KernelCoro ProbePageChain(RealMemory& mm, const HashTable& ht,
                          SlottedPage& pg, int& next, uint64_t* matches) {
  while (next < pg.slot_count()) {
    const int s = next++;
    mm.Prefetch(SlotBucket(ht, pg, s), sizeof(BucketHeader));
    co_await KernelCoro::NextStage{};
    ProbeSlotCounting(ht, pg, s, matches);
  }
}
#endif

/// Count-only probe of one partition page under the disk join's
/// configured execution policy. Slots are probed in order under every
/// policy (group pass 2, SPP stage 2, and the coroutine chains all
/// preserve slot order within their visit), so the tally is
/// scheme-independent.
void ProbePageCounting(const HashTable& ht, SlottedPage& pg, Scheme scheme,
                       const KernelParams& params, uint64_t* matches) {
  RealMemory mm;
  const int n = pg.slot_count();
  switch (scheme) {
    case Scheme::kBaseline:
      for (int s = 0; s < n; ++s) ProbeSlotCounting(ht, pg, s, matches);
      return;
    case Scheme::kSimple:
      // Just-in-time bucket prefetch right before the visit (§7.1).
      for (int s = 0; s < n; ++s) {
        mm.Prefetch(SlotBucket(ht, pg, s), sizeof(BucketHeader));
        ProbeSlotCounting(ht, pg, s, matches);
      }
      return;
    case Scheme::kGroup: {
      const int group = int(params.EffectiveGroupSize());
      for (int base = 0; base < n; base += group) {
        const int g = std::min(group, n - base);
        for (int i = 0; i < g; ++i) {
          mm.Prefetch(SlotBucket(ht, pg, base + i), sizeof(BucketHeader));
        }
        for (int i = 0; i < g; ++i) {
          ProbeSlotCounting(ht, pg, base + i, matches);
        }
      }
      return;
    }
    case Scheme::kSwp: {
      const int d = int(params.EffectiveDistance());
      for (int s = 0; s < std::min(d, n); ++s) {
        mm.Prefetch(SlotBucket(ht, pg, s), sizeof(BucketHeader));
      }
      for (int j = 0; j < n; ++j) {
        if (j + d < n) {
          mm.Prefetch(SlotBucket(ht, pg, j + d), sizeof(BucketHeader));
        }
        ProbeSlotCounting(ht, pg, j, matches);
      }
      return;
    }
    case Scheme::kCoro: {
#if HASHJOIN_HAS_COROUTINES
      int next = 0;
      RunCoroPipeline(mm, params.EffectiveGroupSize(), [&](uint32_t) {
        return ProbePageChain(mm, ht, pg, next, matches);
      });
      return;
#else
      HJ_CHECK(SchemeAvailable(scheme))
          << "disk join configured with the coro scheme on a toolchain "
             "without C++20 coroutines";
      return;
#endif
    }
  }
}

}  // namespace

DiskGraceJoin::DiskGraceJoin(BufferManager* bm, const DiskJoinConfig& config)
    : bm_(bm), config_(config), page_size_(bm->config().disk.page_size) {
  HJ_CHECK(config_.num_partitions >= 1);
  HJ_CHECK(config_.overflow_fanout >= 2);
  if (config_.initial_grant_bytes != 0) {
    peak_budget_ = config_.initial_grant_bytes;
    trough_budget_ = config_.initial_grant_bytes;
  }
}

DiskGraceJoin::DiskGraceJoin(BufferManager* bm, uint32_t num_partitions)
    : DiskGraceJoin(bm, [&] {
        DiskJoinConfig c;
        c.num_partitions = num_partitions;
        return c;
      }()) {}

template <typename Fn>
DiskPhaseStats DiskGraceJoin::Measure(Fn&& fn) {
  std::vector<double> busy_before = bm_->DiskBusySeconds();
  double stall_before = bm_->main_stall_seconds();
  WallTimer timer;
  fn();
  DiskPhaseStats stats;
  stats.elapsed_seconds = timer.ElapsedSeconds();
  std::vector<double> busy_after = bm_->DiskBusySeconds();
  for (size_t i = 0; i < busy_after.size(); ++i) {
    stats.max_disk_seconds =
        std::max(stats.max_disk_seconds, busy_after[i] - busy_before[i]);
  }
  stats.main_wait_seconds = bm_->main_stall_seconds() - stall_before;
  return stats;
}

void DiskGraceJoin::QueueWritePage(BufferManager::FileId file,
                                   uint64_t page_index,
                                   uint8_t* page_bytes) {
  SlottedPage pg = SlottedPage::Attach(page_bytes);
  FileStats& fs = file_stats_[file];
  for (int s = 0; s < pg.slot_count(); ++s) {
    uint16_t len = 0;
    const uint8_t* t = pg.GetTuple(s, &len);
    fs.data_bytes += len;
    // Histogram + uniformity sampling for the adaptive fan-out and the
    // block-nested-loop detector. Level-0 routing hashes the 4-byte key,
    // and partition files memoize exactly that hash, so one key hash
    // serves both consumers.
    uint32_t key;
    std::memcpy(&key, t, 4);
    const uint32_t hash = HashKey32(key);
    ++fs.hist[hash % FileStats::kHistBins];
    if (!fs.has_tuples) {
      fs.first_hash = hash;
      fs.has_tuples = true;
    } else if (hash != fs.first_hash) {
      fs.uniform_hash = false;
    }
  }
  fs.tuples += pg.slot_count();
  if (config_.page_checksums) pg.StampChecksum();
  bm_->WritePageAsync(file, page_index, page_bytes);
}

Status DiskGraceJoin::VerifyPage(const uint8_t* page_bytes) const {
  if (!config_.page_checksums) return Status::OK();
  SlottedPage pg = SlottedPage::Attach(const_cast<uint8_t*>(page_bytes));
  if (!pg.VerifyChecksum(page_size_)) {
    return Status::DataLoss(
        "slotted page failed end-to-end checksum verification");
  }
  return Status::OK();
}

StatusOr<BufferManager::FileId> DiskGraceJoin::StoreRelation(
    const Relation& rel) {
  if (rel.page_size() != page_size_) {
    return Status::InvalidArgument(
        "relation pages must match the disk page size");
  }
  auto file = bm_->CreateFile();
  // The relation is const, so checksums are stamped on a scratch copy of
  // each page (WritePageAsync copies again into its own queue entry; the
  // extra copy only affects this load utility, not the join phases).
  std::vector<uint8_t> scratch(page_size_);
  for (size_t p = 0; p < rel.num_pages(); ++p) {
    std::memcpy(scratch.data(), rel.page(p).data(), page_size_);
    QueueWritePage(file, p, scratch.data());
  }
  HJ_RETURN_IF_ERROR(bm_->FlushWrites());
  return file;
}

Status DiskGraceJoin::PartitionInto(
    BufferManager::FileId input,
    const std::vector<BufferManager::FileId>& outs, uint32_t fanout,
    uint32_t level) {
  if (level_tally_.size() <= level) level_tally_.resize(level + 1);
  SpillLevelStats& lv = level_tally_[level];
  lv.level = level;
  lv.partitions_written += fanout;
  WallTimer level_timer;
  std::vector<std::vector<uint8_t>> bufs(fanout);
  std::vector<SlottedPage> views(fanout);
  std::vector<uint64_t> next_page(fanout, 0);
  for (uint32_t p = 0; p < fanout; ++p) {
    bufs[p].resize(page_size_);
    views[p] = SlottedPage::Format(bufs[p].data(), page_size_);
  }
  auto flush = [&](uint32_t p) {
    QueueWritePage(outs[p], next_page[p]++, bufs[p].data());
    views[p] = SlottedPage::Format(bufs[p].data(), page_size_);
  };
  auto scan = bm_->OpenScan(input);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) break;
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    // The scan buffer is recycled on the next NextPage(), but tuples are
    // fully copied into output buffers within this iteration.
    SlottedPage in = SlottedPage::Attach(const_cast<uint8_t*>(page));
    for (int s = 0; s < in.slot_count(); ++s) {
      uint16_t len = 0;
      const uint8_t* tuple = in.GetTuple(s, &len);
      // Level 0 hashes the key; deeper levels reroute the memoized hash
      // code through the level-salted rehash (every tuple here already
      // agrees on hash % parent_fanout, so reusing the plain hash would
      // put the whole partition into one sub-partition again). The
      // *original* hash code is memoized either way — the join phase and
      // further recursion levels both derive from it.
      uint32_t hash;
      if (level == 0) {
        uint32_t key;
        std::memcpy(&key, tuple, 4);
        hash = HashKey32(key);
      } else {
        hash = in.GetHashCode(s);
      }
      ++lv.tuples;
      lv.bytes_written += len;
      ++lv.hist[hash % SpillLevelStats::kHistBins];
      uint32_t p = (level == 0 ? hash : SaltedRehash(hash, level)) % fanout;
      if (views[p].AddTuple(tuple, len, hash) < 0) {
        flush(p);
        int idx = views[p].AddTuple(tuple, len, hash);
        HJ_CHECK(idx >= 0);
      }
    }
  }
  for (uint32_t p = 0; p < fanout; ++p) {
    if (views[p].slot_count() > 0) flush(p);
  }
  lv.partition_seconds += level_timer.ElapsedSeconds();
  return bm_->FlushWrites();
}

StatusOr<std::vector<BufferManager::FileId>> DiskGraceJoin::Partition(
    BufferManager::FileId input, DiskPhaseStats* stats) {
  return Partition(input, stats,
                   ChooseFanout(input, /*level=*/0, EffectiveBudget()));
}

StatusOr<std::vector<BufferManager::FileId>> DiskGraceJoin::Partition(
    BufferManager::FileId input, DiskPhaseStats* stats, uint32_t fanout) {
  HJ_CHECK(fanout >= 1);
  std::vector<BufferManager::FileId> part_files(fanout);
  for (uint32_t p = 0; p < fanout; ++p) {
    part_files[p] = bm_->CreateFile();
  }
  Status st;
  DiskPhaseStats measured = Measure([&] {
    st = PartitionInto(input, part_files, fanout, /*level=*/0);
  });
  if (stats != nullptr) *stats = measured;
  if (!st.ok()) return st;
  return part_files;
}

uint64_t DiskGraceJoin::EffectiveBudget() {
  const uint64_t live = config_.dynamic_budget.bytes();
  const uint64_t budget = live > 0 ? live : config_.memory_budget;
  if (budget != 0) {
    peak_budget_ = std::max(peak_budget_, budget);
    trough_budget_ = std::min(trough_budget_, budget);
  }
  return budget;
}

void DiskGraceJoin::ReverseRoles(BufferManager::FileId* build,
                                 BufferManager::FileId* probe) {
  ++tally_.role_reversals;
  std::swap(*build, *probe);
}

bool DiskGraceJoin::UniformHash(BufferManager::FileId file) const {
  auto it = file_stats_.find(file);
  if (it == file_stats_.end() || !it->second.has_tuples) return false;
  return it->second.uniform_hash;
}

uint32_t DiskGraceJoin::ChooseFanout(BufferManager::FileId input,
                                     uint32_t level, uint64_t budget) const {
  const uint32_t fallback =
      level == 0 ? config_.num_partitions : config_.overflow_fanout;
  if (!config_.adaptive_fanout || budget == 0) return fallback;
  auto it = file_stats_.find(input);
  if (it == file_stats_.end() || it->second.tuples == 0) return fallback;
  const FileStats& fs = it->second;
  if (level > 0) {
    // Deeper levels route on the level-salted rehash, which the key-hash
    // histogram cannot project. Size the sub-fanout from the observed
    // overflow of the partition being split: the smallest split whose
    // even shares fit the budget, plus one part of headroom for the
    // residual imbalance.
    const uint64_t need = EstimateBuildBytes(input);
    const uint64_t want = need / budget + 2;
    const uint64_t cap = std::max(config_.overflow_fanout, 2u);
    return uint32_t(std::min<uint64_t>(std::max<uint64_t>(want, 2), cap));
  }
  // Level 0 routes on hash % fanout, so for any fan-out dividing the
  // histogram bin count, bin j lands in partition j % fanout and the
  // largest partition's tuple count projects exactly. Pick the smallest
  // power-of-two candidate whose projected largest build fits the
  // budget — fewer partitions mean a larger in-memory hybrid fraction
  // and fewer half-empty output buffers.
  const double avg_bytes = double(fs.data_bytes) / double(fs.tuples);
  for (uint32_t f = 1; f <= FileStats::kHistBins; f *= 2) {
    if (f > config_.max_fanout) break;
    uint64_t largest = 0;
    for (uint32_t r = 0; r < f; ++r) {
      uint64_t tuples = 0;
      for (uint32_t j = r; j < FileStats::kHistBins; j += f) {
        tuples += fs.hist[j];
      }
      largest = std::max(largest, tuples);
    }
    // Projected in-memory cost of the largest partition: its data plus
    // slot overhead (the 9/8 slack), page-rounded, plus its hash table.
    const uint64_t bytes = uint64_t(double(largest) * avg_bytes) * 9 / 8;
    const uint64_t pages = bytes / page_size_ + 1;
    const uint64_t need =
        pages * uint64_t(page_size_) + HashTable::EstimateBytes(largest);
    if (need <= budget) return f;
  }
  return std::min(config_.max_fanout, FileStats::kHistBins);
}

uint64_t DiskGraceJoin::EstimateBuildBytes(BufferManager::FileId file) const {
  uint64_t tuples = 0;
  auto it = file_stats_.find(file);
  if (it != file_stats_.end()) tuples = it->second.tuples;
  return bm_->FileBytes(file) + HashTable::EstimateBytes(tuples);
}

void DiskGraceJoin::NoteBuildBytes(uint64_t pages, uint64_t tuples) {
  uint64_t bytes =
      pages * uint64_t(page_size_) + HashTable::EstimateBytes(tuples);
  tally_.max_build_bytes = std::max(tally_.max_build_bytes, bytes);
}

Status DiskGraceJoin::BuildAndProbe(
    const std::vector<std::vector<uint8_t>>& build_pages,
    uint64_t build_tuples, BufferManager::FileId probe, uint64_t* matches) {
  if (build_tuples == 0) return Status::OK();
  NoteBuildBytes(build_pages.size(), build_tuples);
  // The bucket count only needs to be relatively prime to the moduli the
  // hash codes are constrained by; the initial partition count covers the
  // common case, and recursion levels use an independent (salted) hash.
  HashTable ht(ChooseBucketCount(build_tuples, config_.num_partitions));
  for (const auto& bytes : build_pages) {
    SlottedPage pg =
        SlottedPage::Attach(const_cast<uint8_t*>(bytes.data()));
    for (int s = 0; s < pg.slot_count(); ++s) {
      uint16_t len;
      const uint8_t* t = pg.GetTuple(s, &len);
      ht.Insert(pg.GetHashCode(s), t);
    }
  }
  auto scan = bm_->OpenScan(probe);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) break;
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    SlottedPage pg = SlottedPage::Attach(const_cast<uint8_t*>(page));
    ProbePageCounting(ht, pg, config_.join_scheme, config_.join_params,
                      matches);
  }
  return Status::OK();
}

Status DiskGraceJoin::JoinChunked(BufferManager::FileId build,
                                  BufferManager::FileId probe,
                                  uint64_t* matches) {
  ++tally_.chunked_fallbacks;
  std::vector<std::vector<uint8_t>> chunk;
  uint64_t chunk_tuples = 0;
  auto scan = bm_->OpenScan(build);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) break;
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    uint64_t page_tuples =
        SlottedPage::Attach(const_cast<uint8_t*>(page)).slot_count();
    // Re-read the live budget per page: a broker revoke mid-chunk
    // flushes the chunk earlier, a re-grown grant admits more pages.
    const uint64_t budget = EffectiveBudget();
    // Join the accumulated chunk before this page would push it over the
    // budget. A chunk always holds at least one page, so even a budget
    // smaller than one page's build cost makes progress (that single
    // chunk is the unavoidable minimum working set).
    uint64_t prospective = (chunk.size() + 1) * uint64_t(page_size_) +
                           HashTable::EstimateBytes(chunk_tuples +
                                                    page_tuples);
    if (budget != 0 && prospective > budget && !chunk.empty()) {
      HJ_RETURN_IF_ERROR(BuildAndProbe(chunk, chunk_tuples, probe, matches));
      chunk.clear();
      chunk_tuples = 0;
    }
    chunk.emplace_back(page, page + page_size_);
    chunk_tuples += page_tuples;
  }
  if (!chunk.empty()) {
    HJ_RETURN_IF_ERROR(BuildAndProbe(chunk, chunk_tuples, probe, matches));
  }
  return Status::OK();
}

Status DiskGraceJoin::JoinInMemory(BufferManager::FileId build,
                                   BufferManager::FileId probe,
                                   uint64_t* matches) {
  // Load the build partition (pages must outlive the hash table) and
  // stream the probe partition against it.
  std::vector<std::vector<uint8_t>> pages;
  pages.reserve(bm_->FileNumPages(build));
  uint64_t tuples = 0;
  {
    auto scan = bm_->OpenScan(build);
    const uint8_t* page = nullptr;
    while (true) {
      HJ_RETURN_IF_ERROR(scan.NextPage(&page));
      if (page == nullptr) break;
      HJ_RETURN_IF_ERROR(VerifyPage(page));
      pages.emplace_back(page, page + page_size_);
      tuples += SlottedPage::Attach(pages.back().data()).slot_count();
    }
  }
  return BuildAndProbe(pages, tuples, probe, matches);
}

Status DiskGraceJoin::RecurseSplit(
    BufferManager::FileId probe,
    const std::vector<BufferManager::FileId>& sub_build, uint32_t fanout,
    uint32_t depth, uint64_t* matches) {
  ++tally_.recursive_splits;
  tally_.deepest_recursion = std::max(tally_.deepest_recursion, depth + 1);
  std::vector<BufferManager::FileId> sub_probe(fanout);
  for (uint32_t p = 0; p < fanout; ++p) {
    sub_probe[p] = bm_->CreateFile();
  }
  HJ_RETURN_IF_ERROR(PartitionInto(probe, sub_probe, fanout, depth + 1));
  for (uint32_t p = 0; p < fanout; ++p) {
    HJ_RETURN_IF_ERROR(
        JoinPartitionPair(sub_build[p], sub_probe[p], depth + 1, matches));
  }
  return Status::OK();
}

Status DiskGraceJoin::JoinBlockNestedLoop(BufferManager::FileId build,
                                          BufferManager::FileId probe,
                                          uint64_t* matches) {
  ++tally_.bnl_fallbacks;
  // Single-hash partition: a hash table would be one long chain probed
  // by every tuple, so compare the 4-byte keys directly. Blocks are raw
  // build pages with no table overhead, so a block holds strictly more
  // tuples than a chunk would — and each block costs one probe scan.
  std::vector<std::vector<uint8_t>> block;
  auto probe_block = [&]() -> Status {
    if (block.empty()) return Status::OK();
    NoteBuildBytes(block.size(), 0);
    auto pscan = bm_->OpenScan(probe);
    const uint8_t* ppage = nullptr;
    while (true) {
      HJ_RETURN_IF_ERROR(pscan.NextPage(&ppage));
      if (ppage == nullptr) break;
      HJ_RETURN_IF_ERROR(VerifyPage(ppage));
      SlottedPage pp = SlottedPage::Attach(const_cast<uint8_t*>(ppage));
      for (int ps = 0; ps < pp.slot_count(); ++ps) {
        uint16_t plen = 0;
        const uint8_t* pt = pp.GetTuple(ps, &plen);
        uint32_t pkey;
        std::memcpy(&pkey, pt, 4);
        for (const auto& bytes : block) {
          SlottedPage bp =
              SlottedPage::Attach(const_cast<uint8_t*>(bytes.data()));
          for (int bs = 0; bs < bp.slot_count(); ++bs) {
            uint16_t blen = 0;
            const uint8_t* bt = bp.GetTuple(bs, &blen);
            uint32_t bkey;
            std::memcpy(&bkey, bt, 4);
            if (bkey == pkey) ++*matches;
          }
        }
      }
    }
    return Status::OK();
  };
  auto scan = bm_->OpenScan(build);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) break;
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    // Per-page budget poll, like the chunked build: a revoke shrinks
    // the current block, a re-grant widens the next one.
    const uint64_t budget = EffectiveBudget();
    if (budget != 0 && !block.empty() &&
        (block.size() + 1) * uint64_t(page_size_) > budget) {
      HJ_RETURN_IF_ERROR(probe_block());
      block.clear();
    }
    block.emplace_back(page, page + page_size_);
  }
  return probe_block();
}

Status DiskGraceJoin::JoinPartitionPair(BufferManager::FileId build,
                                        BufferManager::FileId probe,
                                        uint32_t depth, uint64_t* matches) {
  // Inner join: an empty side means no matches, whichever side it is.
  if (bm_->FileNumPages(build) == 0 || bm_->FileNumPages(probe) == 0) {
    return Status::OK();
  }
  const uint64_t budget = EffectiveBudget();
  const uint64_t need = EstimateBuildBytes(build);
  if (budget == 0 || need <= budget) {
    // Fits now — but if it would NOT have fit at the lowest budget this
    // join has been squeezed to, a grant re-growth recovered in-memory
    // work that a revoke had condemned to spill ("un-spill").
    if (budget != 0 && need > trough_budget_) ++tally_.regrant_unspills;
    return JoinInMemory(build, probe, matches);
  }

  // Ladder rung 1 — role reversal: the planned build side turned out
  // too big, but if the probe side fits, joining from the other end
  // avoids spilling entirely. Counting is side-symmetric, so only the
  // memory plan changes.
  if (config_.role_reversal && EstimateBuildBytes(probe) <= budget) {
    ReverseRoles(&build, &probe);
    return JoinInMemory(build, probe, matches);
  }

  // Spilling — and if the partition would have fit at the peak budget,
  // this spill exists only because a revoke shrank the grant.
  if (need <= peak_budget_) ++tally_.revoke_spills;

  // Ladder rung 2 — recursive repartition with the next level's salted
  // hash. A single-hash partition re-hashes into one sub-partition no
  // matter the salt, so it skips recursion outright; the no-progress
  // check below catches the skewed-but-not-uniform shapes.
  if (depth < config_.max_recursion_depth && !UniformHash(build)) {
    const uint64_t build_pages = bm_->FileNumPages(build);
    const uint32_t fanout = ChooseFanout(build, depth + 1, budget);
    std::vector<BufferManager::FileId> sub_build(fanout);
    for (uint32_t p = 0; p < fanout; ++p) sub_build[p] = bm_->CreateFile();
    HJ_RETURN_IF_ERROR(PartitionInto(build, sub_build, fanout, depth + 1));
    uint64_t largest = 0;
    for (uint32_t p = 0; p < fanout; ++p) {
      largest = std::max(largest, bm_->FileNumPages(sub_build[p]));
    }
    if (largest < build_pages) {
      return RecurseSplit(probe, sub_build, fanout, depth, matches);
    }
  }

  // Rungs 3 and 4 hold one side in budget-sized pieces and re-scan the
  // other per piece — so work off whichever side is cheaper to hold.
  if (config_.role_reversal && EstimateBuildBytes(probe) < need) {
    ReverseRoles(&build, &probe);
  }

  // Ladder rung 4 (last resort, checked first because it is a shape,
  // not a size): every build tuple shares one hash code, so each chunk
  // hash table would degenerate to a single chain — the block nested
  // loop does the same comparisons without the table overhead.
  if (UniformHash(build)) {
    return JoinBlockNestedLoop(build, probe, matches);
  }

  // Ladder rung 3 — chunked multipass build past the depth cap.
  return JoinChunked(build, probe, matches);
}

/// Mutable bookkeeping of one hybrid Join() pass, shared by the driver
/// and its spill/un-spill helpers. The residency object owns the
/// resident pages; this owns the files, write cursors, and hash tables.
struct DiskGraceJoin::HybridState {
  std::vector<BufferManager::FileId> build_files;
  std::vector<uint64_t> build_next_page;
  /// File holds the COMPLETE build partition (safe to re-read, and a
  /// second eviction of a re-admitted partition skips re-writing).
  std::vector<char> build_on_disk;
  std::vector<BufferManager::FileId> probe_files;
  std::vector<char> probe_created;
  std::vector<uint64_t> probe_next_page;
  std::vector<std::unique_ptr<HashTable>> tables;
  /// False during the build partition pass (an evicted partition's file
  /// is still growing), true once the pass is complete.
  bool probe_pass = false;
};

Status DiskGraceJoin::SpillVictim(PartitionResidency* res, uint32_t victim,
                                  HybridState* st) {
  ++tally_.victim_spills;
  std::vector<std::vector<uint8_t>> pages = res->Evict(victim);
  if (!st->build_on_disk[victim]) {
    // First eviction: write the resident pages out. During the build
    // pass the partition's remaining tuples will go straight to the
    // file, completing it by end of pass; a partition evicted during
    // the probe pass is complete the moment these writes land.
    for (auto& pg : pages) {
      QueueWritePage(st->build_files[victim], st->build_next_page[victim]++,
                     pg.data());
    }
    if (st->probe_pass) st->build_on_disk[victim] = 1;
  }
  // else: the file already holds the whole partition (this residency
  // came from an un-spill) and dropping the pages costs no I/O.
  st->tables[victim].reset();
  return Status::OK();
}

Status DiskGraceJoin::EnforceResidencyBudget(PartitionResidency* res,
                                             HybridState* st) {
  uint64_t target = EffectiveBudget();
  // Consume a pending revoke hint: the grant's revoke listener stored
  // the post-revoke size the moment the broker took the memory, which
  // can be tighter than the budget poll above observes (and arrives
  // without waiting for the next poll).
  const uint64_t hint =
      revoke_hint_.exchange(UINT64_MAX, std::memory_order_relaxed);
  if (hint != UINT64_MAX && hint != 0) {
    peak_budget_ = std::max(peak_budget_, hint);
    trough_budget_ = std::min(trough_budget_, hint);
    if (target == 0 || hint < target) target = hint;
  }
  if (target == 0) return Status::OK();  // unlimited
  while (res->ResidentBytes() > target) {
    const int victim = res->PickVictim(res->ResidentBytes() - target);
    if (victim < 0) break;  // minimum working set: nothing left to evict
    if (target < peak_budget_) ++tally_.revoke_spills;
    HJ_RETURN_IF_ERROR(SpillVictim(res, uint32_t(victim), st));
  }
  return Status::OK();
}

Status DiskGraceJoin::UnspillPartition(PartitionResidency* res, uint32_t p,
                                       HybridState* st) {
  ++tally_.victim_unspills;
  std::vector<std::vector<uint8_t>> pages;
  uint64_t tuples = 0;
  auto scan = bm_->OpenScan(st->build_files[p]);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) break;
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    pages.emplace_back(page, page + page_size_);
    tuples += SlottedPage::Attach(pages.back().data()).slot_count();
  }
  res->Readmit(p, std::move(pages), tuples);
  return Status::OK();
}

Status DiskGraceJoin::MaybeUnspill(PartitionResidency* res, HybridState* st) {
  // Inverse spill order: the latest victim went out at the lowest
  // budget, so it is the cheapest to bring back and the most likely to
  // fit a partial re-grant.
  bool flushed = false;
  while (true) {
    const int p = res->LastSpilled();
    if (p < 0) break;
    const uint64_t budget = EffectiveBudget();
    if (budget != 0) {
      const uint64_t cost = EstimateBuildBytes(st->build_files[p]);
      if (res->ResidentBytes() + cost > budget) break;
    }
    if (!flushed) {
      // The partition files were written asynchronously; settle them
      // once before the first read-back.
      HJ_RETURN_IF_ERROR(bm_->FlushWrites());
      flushed = true;
    }
    if (budget > trough_budget_) ++tally_.regrant_unspills;
    HJ_RETURN_IF_ERROR(UnspillPartition(res, uint32_t(p), st));
  }
  return Status::OK();
}

Status DiskGraceJoin::JoinHybrid(BufferManager::FileId build,
                                 BufferManager::FileId probe, uint32_t fanout,
                                 DiskJoinResult* result) {
  HybridState st;
  st.build_files.resize(fanout);
  st.build_next_page.assign(fanout, 0);
  st.build_on_disk.assign(fanout, 0);
  st.probe_files.assign(fanout, 0);
  st.probe_created.assign(fanout, 0);
  st.probe_next_page.assign(fanout, 0);
  st.tables.resize(fanout);
  for (uint32_t p = 0; p < fanout; ++p) st.build_files[p] = bm_->CreateFile();

  // Revoke hint wiring: learn post-revoke grant sizes the moment they
  // happen, instead of at the next budget poll. The listener only
  // stores to an atomic (per the SetRevokeListener contract it must not
  // call back into the broker), and is uninstalled on every exit path
  // because the closure captures `this`.
  revoke_hint_.store(UINT64_MAX, std::memory_order_relaxed);
  struct ListenerGuard {
    const DiskJoinConfig* config;
    ~ListenerGuard() {
      if (config->install_revoke_listener) config->install_revoke_listener({});
    }
  } guard{&config_};
  if (config_.install_revoke_listener) {
    config_.install_revoke_listener([this](uint64_t new_bytes) {
      revoke_hint_.store(new_bytes, std::memory_order_relaxed);
    });
  }

  uint64_t matches = 0;
  std::vector<char> spilled(fanout, 0);
  Status pass_st;
  {
    PartitionResidency res(fanout, page_size_, [](uint64_t tuples) {
      return HashTable::EstimateBytes(tuples);
    });

    // ---- Build pass: partition the build input, keeping partitions
    // resident until the live budget forces smallest-loss victims out.
    result->partition_phase = Measure([&] {
      pass_st = [&]() -> Status {
        std::vector<std::vector<uint8_t>> bufs(fanout);
        std::vector<SlottedPage> views(fanout);
        for (uint32_t p = 0; p < fanout; ++p) {
          bufs[p].resize(page_size_);
          views[p] = SlottedPage::Format(bufs[p].data(), page_size_);
        }
        // Routes one full working page to residency or disk, then lets
        // the budget claim victims at this page boundary.
        auto emit = [&](uint32_t p) -> Status {
          if (res.resident(p)) {
            const uint64_t page_tuples = views[p].slot_count();
            res.AddPage(p, std::move(bufs[p]), page_tuples);
            bufs[p] = std::vector<uint8_t>(page_size_);
          } else {
            QueueWritePage(st.build_files[p], st.build_next_page[p]++,
                           bufs[p].data());
          }
          views[p] = SlottedPage::Format(bufs[p].data(), page_size_);
          return EnforceResidencyBudget(&res, &st);
        };
        auto scan = bm_->OpenScan(build);
        const uint8_t* page = nullptr;
        while (true) {
          HJ_RETURN_IF_ERROR(scan.NextPage(&page));
          if (page == nullptr) break;
          HJ_RETURN_IF_ERROR(VerifyPage(page));
          SlottedPage in = SlottedPage::Attach(const_cast<uint8_t*>(page));
          for (int s = 0; s < in.slot_count(); ++s) {
            uint16_t len = 0;
            const uint8_t* tuple = in.GetTuple(s, &len);
            uint32_t key;
            std::memcpy(&key, tuple, 4);
            const uint32_t hash = HashKey32(key);
            const uint32_t p = hash % fanout;
            if (views[p].AddTuple(tuple, len, hash) < 0) {
              HJ_RETURN_IF_ERROR(emit(p));
              const int idx = views[p].AddTuple(tuple, len, hash);
              HJ_CHECK(idx >= 0);
            }
          }
        }
        for (uint32_t p = 0; p < fanout; ++p) {
          if (views[p].slot_count() > 0) HJ_RETURN_IF_ERROR(emit(p));
        }
        return bm_->FlushWrites();
      }();
    });
    HJ_RETURN_IF_ERROR(pass_st);
    // Every partition evicted during the pass kept receiving its
    // remaining tuples directly, so the spilled files are complete now.
    for (uint32_t p = 0; p < fanout; ++p) {
      if (!res.resident(p)) st.build_on_disk[p] = 1;
    }
    st.probe_pass = true;

    // ---- Un-spill window: with the build files complete, re-admit
    // spilled partitions while the (possibly re-grown) budget allows.
    HJ_RETURN_IF_ERROR(MaybeUnspill(&res, &st));

    // ---- Probe pass: hash tables over the resident partitions, probe
    // them on the fly (the hybrid fraction — zero join-phase I/O);
    // tuples of spilled partitions go to probe partition files. The
    // resident probe is the plain per-tuple path; spilled pairs use the
    // configured execution policy in the join phase below.
    result->probe_partition_phase = Measure([&] {
      pass_st = [&]() -> Status {
        for (uint32_t p = 0; p < fanout; ++p) {
          if (!res.resident(p) || res.tuples(p) == 0) continue;
          NoteBuildBytes(res.pages(p).size(), res.tuples(p));
          auto ht = std::make_unique<HashTable>(
              ChooseBucketCount(res.tuples(p), fanout));
          for (const auto& bytes : res.pages(p)) {
            SlottedPage pg =
                SlottedPage::Attach(const_cast<uint8_t*>(bytes.data()));
            for (int s = 0; s < pg.slot_count(); ++s) {
              uint16_t len = 0;
              const uint8_t* t = pg.GetTuple(s, &len);
              ht->Insert(pg.GetHashCode(s), t);
            }
          }
          st.tables[p] = std::move(ht);
        }
        std::vector<std::vector<uint8_t>> bufs(fanout);
        std::vector<SlottedPage> views(fanout);
        for (uint32_t p = 0; p < fanout; ++p) {
          bufs[p].resize(page_size_);
          views[p] = SlottedPage::Format(bufs[p].data(), page_size_);
        }
        auto spill_probe = [&](uint32_t p) {
          if (!st.probe_created[p]) {
            st.probe_files[p] = bm_->CreateFile();
            st.probe_created[p] = 1;
          }
          QueueWritePage(st.probe_files[p], st.probe_next_page[p]++,
                         bufs[p].data());
          views[p] = SlottedPage::Format(bufs[p].data(), page_size_);
        };
        auto scan = bm_->OpenScan(probe);
        const uint8_t* page = nullptr;
        while (true) {
          HJ_RETURN_IF_ERROR(scan.NextPage(&page));
          if (page == nullptr) break;
          HJ_RETURN_IF_ERROR(VerifyPage(page));
          // A revoke mid-probe demotes victims here, at the page
          // boundary. That is safe because each probe tuple is probed
          // exactly once: tuples already probed against the demoted
          // partition stand, and the partition's remaining probe tuples
          // are routed to its probe file and joined from disk.
          HJ_RETURN_IF_ERROR(EnforceResidencyBudget(&res, &st));
          SlottedPage in = SlottedPage::Attach(const_cast<uint8_t*>(page));
          for (int s = 0; s < in.slot_count(); ++s) {
            uint16_t len = 0;
            const uint8_t* tuple = in.GetTuple(s, &len);
            uint32_t key;
            std::memcpy(&key, tuple, 4);
            const uint32_t hash = HashKey32(key);
            const uint32_t p = hash % fanout;
            if (res.resident(p)) {
              if (st.tables[p] != nullptr) {
                st.tables[p]->Probe(hash, [&](const uint8_t* bt) {
                  uint32_t bkey;
                  std::memcpy(&bkey, bt, 4);
                  if (bkey == key) ++matches;
                });
              }
            } else if (views[p].AddTuple(tuple, len, hash) < 0) {
              spill_probe(p);
              const int idx = views[p].AddTuple(tuple, len, hash);
              HJ_CHECK(idx >= 0);
            }
          }
        }
        for (uint32_t p = 0; p < fanout; ++p) {
          if (views[p].slot_count() > 0) spill_probe(p);
        }
        return bm_->FlushWrites();
      }();
    });
    HJ_RETURN_IF_ERROR(pass_st);
    for (uint32_t p = 0; p < fanout; ++p) {
      spilled[p] = res.resident(p) ? 0 : 1;
    }
  }  // residency scope: resident pages released before the join phase
  for (uint32_t p = 0; p < fanout; ++p) st.tables[p].reset();

  // ---- Join phase: only the spilled pairs touch disk again; each one
  // descends the degradation ladder as needed.
  result->join_phase = Measure([&] {
    pass_st = [&]() -> Status {
      for (uint32_t p = 0; p < fanout; ++p) {
        if (!spilled[p]) continue;
        if (!st.probe_created[p]) {
          // No probe tuple hashed here; an empty file keeps the pair
          // aligned (the ladder short-circuits empty sides).
          st.probe_files[p] = bm_->CreateFile();
          st.probe_created[p] = 1;
        }
        HJ_RETURN_IF_ERROR(JoinPartitionPair(st.build_files[p],
                                             st.probe_files[p], /*depth=*/0,
                                             &matches));
      }
      return Status::OK();
    }();
  });
  HJ_RETURN_IF_ERROR(pass_st);
  result->output_tuples = matches;
  return Status::OK();
}

StatusOr<uint64_t> DiskGraceJoin::JoinPartitions(
    const std::vector<BufferManager::FileId>& build_parts,
    const std::vector<BufferManager::FileId>& probe_parts,
    DiskPhaseStats* stats) {
  if (build_parts.size() != probe_parts.size()) {
    return Status::InvalidArgument(
        "build/probe partition counts must match");
  }
  uint64_t matches = 0;
  Status st;
  DiskPhaseStats measured = Measure([&] {
    for (size_t p = 0; p < build_parts.size(); ++p) {
      st = JoinPartitionPair(build_parts[p], probe_parts[p], /*depth=*/0,
                             &matches);
      if (!st.ok()) return;
    }
  });
  if (stats != nullptr) *stats = measured;
  if (!st.ok()) return st;
  return matches;
}

StatusOr<DiskJoinResult> DiskGraceJoin::Join(BufferManager::FileId build,
                                             BufferManager::FileId probe) {
  DiskJoinResult result;
  // Seed the peak/trough watermarks with the budget granted at join
  // start: sizing decisions only run in the join phase, so without this
  // a grant revoked during the partition phase would never register as
  // "once larger" and its spills would misclassify as plain skew.
  EffectiveBudget();
  const DiskJoinRecovery before = Ledger();
  const std::vector<SpillLevelStats> levels_before = level_tally_;
  // One fan-out decision for both relations (pairs must align), made
  // from the build side's observed statistics — StoreRelation sampled
  // its key-hash histogram while writing the input file.
  const uint32_t fanout =
      ChooseFanout(build, /*level=*/0, EffectiveBudget());
  result.num_partitions = fanout;
  if (config_.hybrid_residency) {
    HJ_RETURN_IF_ERROR(JoinHybrid(build, probe, fanout, &result));
  } else {
    HJ_ASSIGN_OR_RETURN(auto build_parts,
                        Partition(build, &result.partition_phase, fanout));
    HJ_ASSIGN_OR_RETURN(
        auto probe_parts,
        Partition(probe, &result.probe_partition_phase, fanout));
    HJ_ASSIGN_OR_RETURN(
        result.output_tuples,
        JoinPartitions(build_parts, probe_parts, &result.join_phase));
  }
  result.recovery = fields::Diff(Ledger(), before);
  // Per-level split statistics, diffed like the recovery tally so each
  // Join() reports only its own partitioning work.
  for (size_t l = 0; l < level_tally_.size(); ++l) {
    const SpillLevelStats diff =
        l < levels_before.size()
            ? fields::Diff(level_tally_[l], levels_before[l])
            : level_tally_[l];
    if (diff.tuples != 0 || diff.partitions_written != 0) {
      result.spill_levels.push_back(diff);
    }
  }
  return result;
}

}  // namespace hashjoin
