#include "join/grace_disk.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "hash/hash_func.h"
#include "hash/hash_table.h"
#include "join/grace.h"
#include "storage/slotted_page.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/timer.h"

namespace hashjoin {

namespace {

/// Probes one slot of a partition page against the build table, counting
/// key matches.
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

/// Count-only probe of one partition page with group prefetching (§4):
/// prefetch the bucket headers of a group of G slots, then probe those
/// slots in order. G is KernelParams' default group size.
void ProbePageCounting(const HashTable& ht, SlottedPage& pg,
                       uint64_t* matches) {
  RealMemory mm;
  const int group = int(KernelParams{}.EffectiveGroupSize());
  const int n = pg.slot_count();
  for (int base = 0; base < n; base += group) {
    const int g = std::min(group, n - base);
    for (int i = 0; i < g; ++i) {
      mm.Prefetch(ht.bucket(ht.BucketIndex(pg.GetHashCode(base + i))),
                  sizeof(BucketHeader));
    }
    for (int i = 0; i < g; ++i) {
      ProbeSlotCounting(ht, pg, base + i, matches);
    }
  }
}

/// The routing hook of a pass that copies every tuple it routes.
constexpr auto kTakeNone = [](uint32_t, uint32_t, const uint8_t*) {
  return false;
};

/// One working output page per partition, each a pool buffer that is
/// handed over whole (to the write queue or to residency) when it fills.
class OutputPages {
 public:
  OutputPages(BufferManager* bm, uint32_t fanout)
      : bm_(bm), pages_(fanout), views_(fanout) {
    for (uint32_t p = 0; p < fanout; ++p) Refill(p);
  }

  SlottedPage& view(uint32_t p) { return views_[p]; }

  /// Hands over partition `p`'s page and starts an empty one. A pool
  /// buffer holds an earlier page's bytes, so the unused ones are zeroed
  /// first: what is written and summed is a function of the tuples.
  PageBuffer Take(uint32_t p) {
    views_[p].ZeroUnusedBytes();
    PageBuffer full = std::move(pages_[p]);
    Refill(p);
    return full;
  }

 private:
  void Refill(uint32_t p) {
    pages_[p] = bm_->TakePage();
    views_[p] = SlottedPage::Format(pages_[p].data(),
                                    bm_->config().disk.page_size);
  }

  BufferManager* bm_;
  std::vector<PageBuffer> pages_;
  std::vector<SlottedPage> views_;
};

}  // namespace

/// One side's partition files and the index of the next page of each.
struct DiskGraceJoin::SpillFiles {
  std::vector<BufferManager::FileId> files;
  std::vector<uint64_t> next_page;
};

/// Mutable bookkeeping of one Join(), shared by its passes and the
/// spill/un-spill helpers. The residency owns the resident pages; this
/// owns the files, write cursors and hash tables.
struct DiskGraceJoin::JoinState {
  JoinState(uint32_t fanout, uint32_t page_size, bool resident)
      : res(fanout, page_size, resident),
        build_on_disk(fanout, 0),
        tables(fanout) {}

  PartitionResidency res;
  SpillFiles build;
  SpillFiles probe;
  /// File holds the COMPLETE build partition (safe to re-read, and a
  /// second eviction of a re-admitted partition skips re-writing).
  std::vector<char> build_on_disk;
  /// Tables of the resident partitions during the probe pass; they point
  /// into the residency's pages, so they are declared after it (and
  /// destroyed before it).
  std::vector<std::unique_ptr<HashTable>> tables;
  /// False during the build pass (an evicted partition's file is still
  /// growing), true once the pass is complete.
  bool probe_pass = false;
};

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

DiskGraceJoin::SpillFiles DiskGraceJoin::CreatePartitionFiles(
    uint32_t fanout, uint32_t level) {
  HJ_CHECK(fanout >= 1);
  if (level_tally_.size() <= level) level_tally_.resize(level + 1);
  level_tally_[level].level = level;
  level_tally_[level].partitions_written += fanout;
  SpillFiles out;
  out.files.resize(fanout);
  out.next_page.assign(fanout, 0);
  for (uint32_t p = 0; p < fanout; ++p) {
    out.files[p] = bm_->CreateFile();
    file_stats_[out.files[p]].level = int(level);
  }
  return out;
}

void DiskGraceJoin::QueueWritePage(BufferManager::FileId file,
                                   uint64_t page_index, PageBuffer page) {
  TallyPage(file, page.data(), SlotHashes::kMemoized);
  bm_->WritePageAsync(file, page_index, std::move(page));
}

void DiskGraceJoin::TallyPage(BufferManager::FileId file,
                              const uint8_t* page, SlotHashes hashes) {
  static_assert(FileStats::kHistBins == SpillLevelStats::kHistBins);
  const SlottedPage pg = SlottedPage::Attach(const_cast<uint8_t*>(page));
  FileStats& fs = file_stats_[file];
  // A partition file's pages are its level's spill cost.
  SpillLevelStats* lv =
      fs.level >= 0 ? &level_tally_[size_t(fs.level)] : nullptr;
  uint64_t page_bytes = 0;
  for (int s = 0; s < pg.slot_count(); ++s) {
    uint16_t len = 0;
    const uint8_t* t = pg.GetTuple(s, &len);
    page_bytes += len;
    // Histogram + uniformity sampling for the adaptive fan-out and the
    // block-nested-loop detector. Level-0 routing hashes the 4-byte key,
    // and partition files memoize exactly that hash, so one key hash
    // serves both consumers; a slot that memoizes it saves hashing.
    uint32_t hash;
    if (hashes == SlotHashes::kMemoized) {
      hash = pg.GetHashCode(s);
    } else {
      uint32_t key;
      std::memcpy(&key, t, 4);
      hash = HashKey32(key);
    }
    const uint32_t bin = hash % FileStats::kHistBins;
    ++fs.hist[bin];
    if (lv != nullptr) ++lv->hist[bin];
    if (!fs.has_tuples) {
      fs.first_hash = hash;
      fs.has_tuples = true;
    } else if (hash != fs.first_hash) {
      fs.uniform_hash = false;
    }
  }
  fs.tuples += pg.slot_count();
  fs.data_bytes += page_bytes;
  if (lv != nullptr) {
    lv->tuples += pg.slot_count();
    lv->bytes_written += page_bytes;
  }
}

Status DiskGraceJoin::VerifyPage(const uint8_t* page_bytes) const {
  // A buffer manager that checksums pages has already checked this
  // frame against the CRC of the page as it was queued.
  if (bm_->config().checksum_pages) return Status::OK();
  // No checksum protects the page: at least keep a torn one from
  // sending the tuple loops past the frame.
  SlottedPage pg = SlottedPage::Attach(const_cast<uint8_t*>(page_bytes));
  if (!pg.SlotsWithinFrame(page_size_)) {
    return Status::DataLoss("slotted page has slots outside the page");
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
  const SlotHashes hashes =
      rel.has_hash_codes() ? SlotHashes::kMemoized : SlotHashes::kNone;
  std::vector<const uint8_t*> pages(rel.num_pages());
  for (size_t p = 0; p < pages.size(); ++p) {
    pages[p] = rel.page(p).data();
    TallyPage(file, pages[p], hashes);
  }
  // Written from the relation's own pages: no copy and no pool page.
  HJ_RETURN_IF_ERROR(bm_->WritePages(file, pages));
  return file;
}

template <typename Take>
Status DiskGraceJoin::PartitionInto(BufferManager::FileId input,
                                    uint32_t level, SpillFiles* out,
                                    JoinState* st, Take&& take) {
  WallTimer timer;
  const uint32_t fanout = uint32_t(out->files.size());
  const FastMod32 route(fanout);
  OutputPages pages(bm_, fanout);
  // Hands one full page to residency or to the write queue; the budget
  // may then claim victims at this page boundary.
  auto emit = [&](uint32_t p) {
    if (st != nullptr && st->res.resident(p)) {
      const uint64_t page_tuples = pages.view(p).slot_count();
      st->res.AddPage(p, pages.Take(p), page_tuples);
    } else {
      QueueWritePage(out->files[p], out->next_page[p]++, pages.Take(p));
    }
    if (st != nullptr) EnforceResidencyBudget(st);
  };
  auto scan = bm_->OpenScan(input);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) break;
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    // A revoke mid-probe demotes victims here too. That is safe because
    // each probe tuple is probed exactly once: tuples already probed
    // against the demoted partition stand, and the partition's remaining
    // probe tuples are routed to its probe file and joined from disk.
    if (st != nullptr) EnforceResidencyBudget(st);
    // The scan buffer is recycled on the next NextPage(), but tuples are
    // fully copied into output pages (or probed) within this iteration.
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
      const uint32_t p = route(level == 0 ? hash : SaltedRehash(hash, level));
      if (take(p, hash, tuple)) continue;
      if (pages.view(p).AddTuple(tuple, len, hash) < 0) {
        emit(p);
        const int idx = pages.view(p).AddTuple(tuple, len, hash);
        HJ_CHECK(idx >= 0);
      }
    }
  }
  for (uint32_t p = 0; p < fanout; ++p) {
    if (pages.view(p).slot_count() > 0) emit(p);
  }
  level_tally_[level].partition_seconds += timer.ElapsedSeconds();
  return bm_->FlushWrites();
}

StatusOr<std::vector<BufferManager::FileId>> DiskGraceJoin::Partition(
    BufferManager::FileId input, DiskPhaseStats* stats) {
  SpillFiles parts = CreatePartitionFiles(
      ChooseFanout(input, /*level=*/0, EffectiveBudget()), /*level=*/0);
  Status status;
  DiskPhaseStats measured = Measure([&] {
    status = PartitionInto(input, /*level=*/0, &parts, nullptr, kTakeNone);
  });
  if (stats != nullptr) *stats = measured;
  if (!status.ok()) return status;
  return std::move(parts.files);
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
  return FileStats::kHistBins;
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

Status DiskGraceJoin::LoadPages(BufferManager::FileId file,
                                std::vector<PageBuffer>* pages,
                                uint64_t* tuples) {
  pages->reserve(pages->size() + bm_->FileNumPages(file));
  auto scan = bm_->OpenScan(file);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) return Status::OK();
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    pages->push_back(scan.KeepPage());
    *tuples += SlottedPage::Attach(pages->back().data()).slot_count();
  }
}

std::unique_ptr<HashTable> DiskGraceJoin::BuildTable(
    const std::vector<PageBuffer>& pages, uint64_t tuples, uint32_t fanout) {
  NoteBuildBytes(pages.size(), tuples);
  auto ht = std::make_unique<HashTable>(ChooseBucketCount(tuples, fanout));
  for (const PageBuffer& page : pages) {
    SlottedPage pg = SlottedPage::Attach(page.data());
    for (int s = 0; s < pg.slot_count(); ++s) {
      ht->Insert(pg.GetHashCode(s), pg.GetTuple(s, nullptr));
    }
  }
  return ht;
}

Status DiskGraceJoin::BuildAndProbe(const std::vector<PageBuffer>& build_pages,
                                    uint64_t build_tuples,
                                    BufferManager::FileId probe,
                                    uint64_t* matches) {
  if (build_tuples == 0) return Status::OK();
  // The bucket count only needs to be relatively prime to the moduli the
  // hash codes are constrained by; the initial partition count covers the
  // common case, and recursion levels use an independent (salted) hash.
  const std::unique_ptr<HashTable> ht =
      BuildTable(build_pages, build_tuples, config_.num_partitions);
  auto scan = bm_->OpenScan(probe);
  const uint8_t* page = nullptr;
  while (true) {
    HJ_RETURN_IF_ERROR(scan.NextPage(&page));
    if (page == nullptr) break;
    HJ_RETURN_IF_ERROR(VerifyPage(page));
    SlottedPage pg = SlottedPage::Attach(const_cast<uint8_t*>(page));
    ProbePageCounting(*ht, pg, matches);
  }
  return Status::OK();
}

Status DiskGraceJoin::JoinChunked(BufferManager::FileId build,
                                  BufferManager::FileId probe,
                                  uint64_t* matches) {
  ++tally_.chunked_fallbacks;
  std::vector<PageBuffer> chunk;
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
    chunk.push_back(scan.KeepPage());
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
  // Load the build partition (pages must outlive the hash table, so the
  // scan's pages are kept) and stream the probe partition against it.
  std::vector<PageBuffer> pages;
  uint64_t tuples = 0;
  HJ_RETURN_IF_ERROR(LoadPages(build, &pages, &tuples));
  return BuildAndProbe(pages, tuples, probe, matches);
}

Status DiskGraceJoin::RecurseSplit(BufferManager::FileId probe,
                                   const SpillFiles& sub_build,
                                   uint32_t depth, uint64_t* matches) {
  ++tally_.recursive_splits;
  tally_.deepest_recursion = std::max(tally_.deepest_recursion, depth + 1);
  const uint32_t fanout = uint32_t(sub_build.files.size());
  SpillFiles sub_probe = CreatePartitionFiles(fanout, depth + 1);
  HJ_RETURN_IF_ERROR(
      PartitionInto(probe, depth + 1, &sub_probe, nullptr, kTakeNone));
  for (uint32_t p = 0; p < fanout; ++p) {
    HJ_RETURN_IF_ERROR(JoinPartitionPair(sub_build.files[p],
                                         sub_probe.files[p], depth + 1,
                                         matches));
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
  std::vector<PageBuffer> block;
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
        for (const PageBuffer& bpage : block) {
          SlottedPage bp = SlottedPage::Attach(bpage.data());
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
    block.push_back(scan.KeepPage());
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
  if (EstimateBuildBytes(probe) <= budget) {
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
    SpillFiles sub_build = CreatePartitionFiles(
        ChooseFanout(build, depth + 1, budget), depth + 1);
    HJ_RETURN_IF_ERROR(
        PartitionInto(build, depth + 1, &sub_build, nullptr, kTakeNone));
    uint64_t largest = 0;
    for (BufferManager::FileId f : sub_build.files) {
      largest = std::max(largest, bm_->FileNumPages(f));
    }
    if (largest < build_pages) {
      return RecurseSplit(probe, sub_build, depth, matches);
    }
  }

  // Rungs 3 and 4 hold one side in budget-sized pieces and re-scan the
  // other per piece — so work off whichever side is cheaper to hold.
  if (EstimateBuildBytes(probe) < need) ReverseRoles(&build, &probe);

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

void DiskGraceJoin::SpillVictim(JoinState* st, uint32_t victim) {
  ++tally_.victim_spills;
  // The table points into the pages, so it goes before they change hands.
  st->tables[victim].reset();
  std::vector<PageBuffer> pages = st->res.Evict(victim);
  if (!st->build_on_disk[victim]) {
    // First eviction: queue the resident pages as they are. During the
    // build pass the partition's remaining tuples will go straight to
    // the file, completing it by end of pass; a partition evicted during
    // the probe pass is complete the moment these writes land.
    for (PageBuffer& page : pages) {
      QueueWritePage(st->build.files[victim], st->build.next_page[victim]++,
                     std::move(page));
    }
    if (st->probe_pass) st->build_on_disk[victim] = 1;
  }
  // else: the file already holds the whole partition (this residency
  // came from an un-spill) and dropping the pages costs no I/O.
}

void DiskGraceJoin::EnforceResidencyBudget(JoinState* st) {
  PartitionResidency& res = st->res;
  // Nothing resident, nothing to evict: a join whose partitions all
  // started spilled never polls here.
  if (res.ResidentBytes() == 0) return;
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
  if (target == 0) return;  // unlimited
  while (res.ResidentBytes() > target) {
    const int victim = res.PickVictim(res.ResidentBytes() - target);
    if (victim < 0) break;  // minimum working set: nothing left to evict
    if (target < peak_budget_) ++tally_.revoke_spills;
    SpillVictim(st, uint32_t(victim));
  }
}

Status DiskGraceJoin::UnspillPartition(JoinState* st, uint32_t p) {
  ++tally_.victim_unspills;
  std::vector<PageBuffer> pages;
  uint64_t tuples = 0;
  HJ_RETURN_IF_ERROR(LoadPages(st->build.files[p], &pages, &tuples));
  st->res.Readmit(p, std::move(pages), tuples);
  return Status::OK();
}

Status DiskGraceJoin::MaybeUnspill(JoinState* st) {
  // Inverse spill order: the latest victim went out at the lowest
  // budget, so it is the cheapest to bring back and the most likely to
  // fit a partial re-grant.
  bool flushed = false;
  while (true) {
    const int p = st->res.LastSpilled();
    if (p < 0) break;
    const uint64_t budget = EffectiveBudget();
    if (budget != 0) {
      const uint64_t cost = EstimateBuildBytes(st->build.files[p]);
      if (st->res.ResidentBytes() + cost > budget) break;
    }
    if (!flushed) {
      // The partition files were written asynchronously; settle them
      // once before the first read-back.
      HJ_RETURN_IF_ERROR(bm_->FlushWrites());
      flushed = true;
    }
    if (budget > trough_budget_) ++tally_.regrant_unspills;
    HJ_RETURN_IF_ERROR(UnspillPartition(st, uint32_t(p)));
  }
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
  std::vector<BufferManager::FileId> spilled_build;
  std::vector<BufferManager::FileId> spilled_probe;
  Status pass_st;
  {
    JoinState st(fanout, page_size_, config_.hybrid_residency);
    // Both sides' files up front, build side first: the classic mode's
    // file ids, whichever partitions end up written.
    st.build = CreatePartitionFiles(fanout, /*level=*/0);
    st.probe = CreatePartitionFiles(fanout, /*level=*/0);

    // ---- Build pass: partition the build input; resident partitions
    // keep their pages until the live budget forces victims out.
    result.partition_phase = Measure([&] {
      pass_st = PartitionInto(build, /*level=*/0, &st.build, &st, kTakeNone);
    });
    HJ_RETURN_IF_ERROR(pass_st);
    // Every partition evicted during the pass kept receiving its
    // remaining tuples directly, so the spilled files are complete now.
    for (uint32_t p = 0; p < fanout; ++p) {
      if (!st.res.resident(p)) st.build_on_disk[p] = 1;
    }
    st.probe_pass = true;

    // ---- Un-spill window: with the build files complete, re-admit
    // evicted partitions while the (possibly re-grown) budget allows.
    HJ_RETURN_IF_ERROR(MaybeUnspill(&st));

    // ---- Probe pass: hash tables over the resident partitions, probed
    // on the fly (the hybrid fraction — zero join-phase I/O); tuples of
    // spilled partitions go to probe partition files. The resident probe
    // is the plain per-tuple path; spilled pairs are probed with group
    // prefetching in the join phase below.
    result.probe_partition_phase = Measure([&] {
      for (uint32_t p = 0; p < fanout; ++p) {
        if (!st.res.resident(p) || st.res.tuples(p) == 0) continue;
        st.tables[p] = BuildTable(st.res.pages(p), st.res.tuples(p), fanout);
      }
      pass_st = PartitionInto(
          probe, /*level=*/0, &st.probe, &st,
          [&](uint32_t p, uint32_t hash, const uint8_t* tuple) {
            if (!st.res.resident(p)) return false;
            if (st.tables[p] != nullptr) {
              uint32_t key;
              std::memcpy(&key, tuple, 4);
              st.tables[p]->Probe(hash, [&](const uint8_t* bt) {
                uint32_t bkey;
                std::memcpy(&bkey, bt, 4);
                if (bkey == key) ++matches;
              });
            }
            return true;
          });
    });
    HJ_RETURN_IF_ERROR(pass_st);
    for (uint32_t p = 0; p < fanout; ++p) {
      if (st.res.resident(p)) continue;
      spilled_build.push_back(st.build.files[p]);
      spilled_probe.push_back(st.probe.files[p]);
    }
  }  // resident pages and their tables are released before the join phase

  // ---- Join phase: only the spilled pairs touch disk again; each one
  // descends the degradation ladder as needed.
  HJ_ASSIGN_OR_RETURN(
      const uint64_t joined,
      JoinPartitions(spilled_build, spilled_probe, &result.join_phase));
  result.output_tuples = matches + joined;
  result.recovery = fields::Diff(Ledger(), before);
  // Per-level partitioning statistics, diffed like the recovery tally so
  // each Join() reports only its own partitioning work.
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
