#ifndef HASHJOIN_STORAGE_BUFFER_MANAGER_H_
#define HASHJOIN_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "storage/disk.h"
#include "storage/fault_injection.h"
#include "util/aligned.h"
#include "util/budget_view.h"
#include "util/fields.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace hashjoin {

/// Bounded exponential backoff for transient I/O faults. An operation is
/// tried up to max_attempts times; attempt k sleeps
/// min(initial_backoff_us * multiplier^k, max_backoff_us) before
/// retrying. Only transient failures (kIOError, checksum mismatches) are
/// retried; permanent errors (kOutOfRange, ...) surface immediately.
struct RetryPolicy {
  uint32_t max_attempts = 6;
  uint32_t initial_backoff_us = 20;
  double multiplier = 2.0;
  uint32_t max_backoff_us = 2000;

  /// Microseconds to sleep before retry number `attempt` (0-based).
  uint32_t BackoffUs(uint32_t attempt) const;
};

/// Recovery-action counters of the fault-tolerant I/O path; all values
/// are cumulative since construction. Callers diff snapshots to get
/// per-phase numbers.
struct IoRecoveryStats {
  uint64_t read_retries = 0;    ///< reads re-issued after transient error
  uint64_t write_retries = 0;   ///< writes re-issued after transient error
  uint64_t checksum_failures = 0;  ///< read pages failing CRC (then retried)
  uint64_t write_verify_failures = 0;  ///< read-back mismatches (rewritten)
  uint64_t injected_faults = 0;  ///< faults the injector actually delivered
  /// Total transfer volume, counting every disk attempt (retries and
  /// write-verify read-backs included — this is traffic, not payload).
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("read_retries", &IoRecoveryStats::read_retries);
    v("write_retries", &IoRecoveryStats::write_retries);
    v("checksum_failures", &IoRecoveryStats::checksum_failures);
    v("write_verify_failures", &IoRecoveryStats::write_verify_failures);
    v("injected_faults", &IoRecoveryStats::injected_faults);
    v("bytes_read", &IoRecoveryStats::bytes_read);
    v("bytes_written", &IoRecoveryStats::bytes_written);
  }
};

class PagePool;

/// One page-sized, cache-line-aligned buffer from a BufferManager's page
/// pool (BufferManager::TakePage). Move-only: whoever holds it owns the
/// bytes, and dropping it gives the buffer back to the pool. A page
/// changes hands without a copy from the join's working page to the
/// write queue, or from a scan frame to the join (DESIGN.md §6). Drop
/// every PageBuffer before the BufferManager that issued it, and never
/// while holding another lock: the pool's mutex is a leaf.
class PageBuffer {
 public:
  PageBuffer() = default;
  PageBuffer(PageBuffer&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        bytes_(std::exchange(other.bytes_, nullptr)) {}
  PageBuffer& operator=(PageBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = std::exchange(other.pool_, nullptr);
      bytes_ = std::exchange(other.bytes_, nullptr);
    }
    return *this;
  }
  ~PageBuffer() { Release(); }

  /// The page's bytes; whatever its previous owner left there until this
  /// owner writes them.
  uint8_t* data() const { return bytes_; }
  explicit operator bool() const { return bytes_ != nullptr; }

 private:
  friend class PagePool;
  PageBuffer(PagePool* pool, uint8_t* bytes) : pool_(pool), bytes_(bytes) {}
  /// Gives the bytes back to their pool (no-op when empty).
  void Release();

  PagePool* pool_ = nullptr;
  uint8_t* bytes_ = nullptr;
};

/// Free page-sized buffers of one BufferManager. Take pops one,
/// allocating only when none is free, and a PageBuffer gives its bytes
/// back when dropped; so the pool allocates only up to the most pages
/// ever in use at once. mu_ is never held with another lock.
class PagePool {
 public:
  explicit PagePool(uint32_t page_size) : page_size_(page_size) {}
  /// Frees every page; each must have come back.
  ~PagePool();

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  PageBuffer Take() HJ_EXCLUDES(mu_);

  /// Pages allocated so far (cumulative; the pool never frees one early).
  uint64_t pages_allocated() const HJ_EXCLUDES(mu_);

 private:
  friend class PageBuffer;
  void Give(uint8_t* bytes) HJ_EXCLUDES(mu_);

  const uint32_t page_size_;
  mutable Mutex mu_;
  std::vector<uint8_t*> free_ HJ_GUARDED_BY(mu_);
  uint64_t allocated_ HJ_GUARDED_BY(mu_) = 0;
};

/// Buffer manager configuration (paper §7.2: relations striped across all
/// disks in 256KB units, a dedicated worker thread per disk, I/O
/// prefetching and background writing).
struct BufferManagerConfig {
  uint32_t num_disks = 4;
  DiskConfig disk;
  uint32_t stripe_unit_pages = 32;  // 32 x 8KB = 256KB stripe unit
  uint32_t io_prefetch_depth = 96;  // read-ahead window per scan (3 stripes,
                                    // so several disks stream in parallel;
                                    // at least 2)
  /// Per-page CRC32, computed when a page is queued for write and
  /// verified (with retries) when it is read back. Catches torn pages
  /// and corruption anywhere between the write queue and the read frame.
  bool checksum_pages = true;
  /// Read every written page back and compare checksums before declaring
  /// the write durable; mismatches trigger a rewrite. This is the
  /// defense against torn writes (which report success), at the price of
  /// one extra read per write — enable it when the device can tear
  /// pages, e.g. whenever fault.torn_page_rate > 0. Requires
  /// checksum_pages: the read-back is compared with the page's CRC.
  bool verify_writes = false;
  /// Retry/backoff policy for transient faults and checksum mismatches.
  RetryPolicy retry;
};

/// Stripes page files across simulated disks, with one worker thread per
/// disk performing I/O on behalf of the main hash-join thread. Reads are
/// prefetched ahead of a sequential scan; writes are queued and retired
/// in the background, so I/O overlaps with computation as much as the
/// disks allow. Tracks the Figure-9 measurements: per-disk busy time and
/// the main thread's time blocked waiting for workers.
///
/// Hand-offs are batched so a spilling query does not pay the kernel per
/// page (DESIGN.md §6): requests queue by value, a worker drains its
/// whole queue per wake-up, a write wakes an idle worker only once
/// stripe_unit_pages requests are queued (FlushWrites, a scan's read
/// batch and shutdown always wake it), and a read completes into a
/// status and a ready flag in the scan's frame. Each disk serves its
/// queue in FIFO order, so a read sees every write queued before it.
///
/// Page buffers come from one pool (PagePool) and change hands instead
/// of bytes: a caller fills a TakePage() buffer and hands it to
/// WritePageAsync, which queues it and gives it back after the write,
/// or lends pages it owns to WritePages for the length of the call; a
/// scan takes frames only for the pages its file has, and its caller may
/// keep the page just returned (Scanner::KeepPage). So a spill allocates
/// no buffer per page and copies no page on its way to the disk queue.
///
/// Fault tolerance: every page gets a CRC32 on write; reads verify it.
/// Transient device errors and checksum mismatches are retried with
/// bounded exponential backoff on the owning worker thread; only
/// exhausted retries surface a Status (kDataLoss for persistent
/// corruption) to the caller — reads via Scanner::NextPage, writes via
/// FlushWrites.
class BufferManager {
  struct ReadFrame;
  struct Request;

 public:
  using FileId = uint32_t;

  explicit BufferManager(const BufferManagerConfig& config);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Creates an empty striped file.
  FileId CreateFile() HJ_EXCLUDES(files_mu_);

  /// A page buffer from this manager's pool, for WritePageAsync or for
  /// the caller's own use; its bytes are whatever its last owner left.
  PageBuffer TakePage() { return pages_.Take(); }

  /// Appends/overwrites page `page_index` with `page` (a TakePage()
  /// buffer), queued without a copy and written in the background; the
  /// buffer goes back to the pool once written. With checksum_pages the
  /// page is summed here, once, and every read of it is checked against
  /// that CRC. Pages of a file must be written densely (the hash join
  /// writes partitions sequentially). Write failures surface at the next
  /// FlushWrites.
  void WritePageAsync(FileId file, uint64_t page_index, PageBuffer page)
      HJ_EXCLUDES(files_mu_);

  /// Writes `pages` as pages [0, pages.size()) of `file` straight from
  /// the caller's bytes, with no pool buffer and no copy, and returns
  /// FlushWrites()' status: the call returns only once every queued
  /// write has reached its disk, so no pointer outlives it. Checksums,
  /// write verification and fault injection treat each page as
  /// WritePageAsync does.
  Status WritePages(FileId file, std::span<const uint8_t* const> pages)
      HJ_EXCLUDES(files_mu_, writes_mu_);

  /// Blocks until every queued write has reached its disk. Returns the
  /// first write error since the previous FlushWrites (after retries
  /// were exhausted), OK otherwise.
  Status FlushWrites() HJ_EXCLUDES(writes_mu_);

  uint64_t FileNumPages(FileId file) const HJ_EXCLUDES(files_mu_);

  /// On-disk size of a file, bytes (pages are fixed-size, so this is
  /// FileNumPages * page_size). Partition-sizing decisions — role
  /// reversal, victim selection — compare actual file sizes through
  /// this instead of re-deriving the page math at every call site.
  uint64_t FileBytes(FileId file) const HJ_EXCLUDES(files_mu_);

  /// Sequential scan with read-ahead. Not thread-safe; one user at a time.
  class Scanner {
   public:
    Scanner(BufferManager* bm, FileId file);

    /// Waits out in-flight read-ahead requests, then gives the frames
    /// back to the pool: a scan abandoned mid-file (e.g. after an I/O
    /// error) must not recycle frame buffers a disk worker is still
    /// writing into.
    ~Scanner();

    Scanner(Scanner&&) = default;

    /// Stores the next page's bytes (valid until the next call, unless
    /// kept) in `*page`, or nullptr at end of file. Blocks only when
    /// read-ahead fell behind. A non-OK status (transient faults that
    /// survived all retries, or kDataLoss for corruption) ends the scan.
    Status NextPage(const uint8_t** page);

    /// Hands the caller the buffer holding the page NextPage just
    /// returned, so the page outlives the scan without a copy; its frame
    /// takes a fresh buffer from the pool. Call at most once per page,
    /// before the next NextPage.
    PageBuffer KeepPage();

   private:
    /// Refills the read-ahead window once half of it has drained.
    void IssueReadAhead();

    BufferManager* bm_;
    FileId file_;
    uint64_t num_pages_;
    uint64_t next_to_issue_ = 0;
    uint64_t next_to_return_ = 0;
    bool can_keep_ = false;  // NextPage just returned a page not yet kept
    uint32_t num_frames_;
    /// Ring of min(io_prefetch_depth, num_pages_) frames: a scan of a
    /// short file takes no frame it could not fill.
    std::unique_ptr<ReadFrame[]> frames_;
    std::vector<Request> batch_;  // one refill's reads, reused
  };

  Scanner OpenScan(FileId file) { return Scanner(this, file); }

  /// Seconds the calling (main) thread spent blocked on reads.
  double main_stall_seconds() const {
    return double(main_stall_ns_.load()) * 1e-9;
  }

  /// Cumulative transfer time of each disk (callers diff snapshots to
  /// get per-phase utilization).
  std::vector<double> DiskBusySeconds() const;

  /// Cumulative recovery-action counters (callers diff snapshots).
  IoRecoveryStats recovery_stats() const;

  /// Installs (or clears, with an empty view) a live byte budget for
  /// scan read-ahead: each scan's in-flight window is capped at
  /// budget / page_size frames (floor 2, so scans always make progress,
  /// ceiling io_prefetch_depth). A query wires its broker grant in here
  /// so a revoked query also stops hoarding frame memory. Read once per
  /// NextPage() on the scanning thread, without a lock.
  void SetReadAheadBudget(BudgetView budget) {
    readahead_budget_.store(budget, std::memory_order_release);
  }

  /// Times a scan's read-ahead window was clamped below the configured
  /// depth by the budget (cumulative; callers diff snapshots).
  uint64_t readahead_throttles() const {
    return readahead_throttles_.load(std::memory_order_relaxed);
  }

  uint32_t num_disks() const { return uint32_t(disks_.size()); }
  const BufferManagerConfig& config() const { return config_; }

  /// Page buffers the pool has allocated: the most ever in use at once
  /// (write queue, scan frames and pages held by callers).
  uint64_t pool_pages_allocated() const { return pages_.pages_allocated(); }

 private:
  /// A scan's read-ahead frame. The disk worker fills `buffer`, stores
  /// the read's outcome in `status`, then publishes both by setting the
  /// ready flag `filled` (release); the scanner reads them once it sees
  /// `filled` (acquire). A frame with no read in flight is filled.
  struct ReadFrame {
    PageBuffer buffer;
    Status status;
    std::atomic<bool> filled{true};
    uint32_t disk = 0;  // serves the read in flight; scanner-owned
  };

  /// One disk operation, queued by value: a read into `read` when that
  /// is set, else a write of the page at `write_bytes`.
  struct Request {
    uint64_t disk_page = 0;
    ReadFrame* read = nullptr;
    const uint8_t* write_bytes = nullptr;
    /// Owns write_bytes when the writer handed its page over
    /// (WritePageAsync); empty when it lent them (WritePages).
    PageBuffer write_data;
    uint32_t expected_crc = 0;  // the page's CRC, with checksum_pages
  };

  struct DiskWorker {
    std::unique_ptr<FaultInjectingDisk> disk;
    std::thread thread;
    Mutex mu;
    CondVar cv;
    std::vector<Request> queue HJ_GUARDED_BY(mu);
    /// The worker waits on cv for work, and no wake-up is posted.
    bool idle HJ_GUARDED_BY(mu) = false;
    /// Set at destruction: the worker exits once its queue is empty.
    bool stopping HJ_GUARDED_BY(mu) = false;
    /// Bumped after every read this worker completes; a scanner whose
    /// frame is not filled waits for it to change.
    std::atomic<uint32_t> reads_done{0};
    /// Write-verify read-back buffer; touched only by the owning worker
    /// thread, never concurrently (set up before the thread starts).
    AlignedBuffer<uint8_t> verify_scratch;
  };

  struct PagePlacement {
    uint64_t disk_page = 0;
    uint32_t crc = 0;
  };

  struct FileMeta {
    std::vector<PagePlacement> pages;  // indexed by page_index
  };

  void WorkerLoop(DiskWorker* w);
  /// Sums `req`'s page (with checksum_pages), places it as page
  /// `page_index` of `file` and queues it on its disk.
  void QueueWrite(FileId file, uint64_t page_index, Request req)
      HJ_EXCLUDES(files_mu_);
  /// Frames a scan may keep in flight right now (see SetReadAheadBudget).
  uint32_t ReadAheadWindow();
  /// Reads `disk_page` into `dst`, retrying transient errors and, when a
  /// `crc` is given, pages that fail it (kDataLoss once retries run out).
  /// The write-verify read-back passes none: it compares CRCs itself.
  Status ReadWithRetry(DiskWorker* w, uint64_t disk_page, uint8_t* dst,
                       std::optional<uint32_t> crc);
  Status WriteWithRetry(DiskWorker* w, const Request& req);
  void Backoff(uint32_t attempt);
  /// Records a finished write; wakes FlushWrites after the last one.
  void RetireWrite(Status s) HJ_EXCLUDES(writes_mu_);

  /// Appends `n` requests (moved from `reqs`) to `w`'s queue and wakes
  /// the worker if it is idle and its queue holds at least `wake_at`.
  void Submit(DiskWorker* w, Request* reqs, size_t n, size_t wake_at);
  /// Queues reads of file pages [begin, end) into `frames` (page p into
  /// frame p % num_frames), one submission per disk. `batch` is scratch.
  void SubmitReads(FileId file, uint64_t begin, uint64_t end,
                   ReadFrame* frames, uint32_t num_frames,
                   std::vector<Request>* batch) HJ_EXCLUDES(files_mu_);
  /// Blocks until `f` is filled.
  void AwaitRead(const ReadFrame& f);

  /// Stripe placement, staggered by file id so that small files (e.g.
  /// hundreds of partition outputs) spread over all disks instead of
  /// piling their first stripes onto disk 0.
  uint32_t DiskOf(FileId file, uint64_t page_index) const {
    return uint32_t((page_index / config_.stripe_unit_pages + file) %
                    disks_.size());
  }

  BufferManagerConfig config_;
  /// Queued writes, scan frames and pages callers hold; outlives every
  /// worker thread and scanner.
  PagePool pages_;
  std::vector<std::unique_ptr<DiskWorker>> disks_;
  /// Never held together with a DiskWorker's mu: placements are made
  /// under files_mu_, and requests queued after it is released.
  mutable Mutex files_mu_;
  std::vector<FileMeta> files_ HJ_GUARDED_BY(files_mu_);
  /// Per disk, the next unused disk page (a sequential allocator).
  std::vector<uint64_t> next_free_page_ HJ_GUARDED_BY(files_mu_);
  std::atomic<int64_t> main_stall_ns_{0};
  std::atomic<uint64_t> pending_writes_{0};
  Mutex writes_mu_;
  CondVar writes_cv_;
  Status first_write_error_ HJ_GUARDED_BY(writes_mu_);
  std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> write_retries_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> write_verify_failures_{0};
  std::atomic<BudgetView> readahead_budget_{BudgetView()};
  std::atomic<uint64_t> readahead_throttles_{0};
};

}  // namespace hashjoin

#endif  // HASHJOIN_STORAGE_BUFFER_MANAGER_H_
