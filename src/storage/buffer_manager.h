#ifndef HASHJOIN_STORAGE_BUFFER_MANAGER_H_
#define HASHJOIN_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
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

/// Buffer manager configuration (paper §7.2: relations striped across all
/// disks in 256KB units, a dedicated worker thread per disk, I/O
/// prefetching and background writing).
struct BufferManagerConfig {
  uint32_t num_disks = 4;
  DiskConfig disk;
  uint32_t stripe_unit_pages = 32;  // 32 x 8KB = 256KB stripe unit
  uint32_t io_prefetch_depth = 96;  // read-ahead window per scan (3 stripes,
                                    // so several disks stream in parallel)
  /// Per-page CRC32, computed when a page is queued for write and
  /// verified (with retries) when it is read back. Catches torn pages
  /// and corruption anywhere between the write queue and the read frame.
  bool checksum_pages = true;
  /// Read every written page back and compare checksums before declaring
  /// the write durable; mismatches trigger a rewrite. This is the
  /// defense against torn writes (which report success), at the price of
  /// one extra read per write — enable it when the device can tear
  /// pages, e.g. whenever fault.torn_page_rate > 0.
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

  /// Appends/overwrites page `page_index`; the data is copied (and
  /// checksummed) synchronously, then written in the background. Pages
  /// of a file must be written densely (the hash join writes partitions
  /// sequentially). Write failures surface at the next FlushWrites.
  void WritePageAsync(FileId file, uint64_t page_index, const void* data)
      HJ_EXCLUDES(files_mu_);

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

    /// Waits out in-flight read-ahead requests: a scan abandoned mid-file
    /// (e.g. after an I/O error) must not free frame buffers a disk
    /// worker is still writing into.
    ~Scanner();

    Scanner(Scanner&&) = default;

    /// Stores the next page's bytes (valid until the next call) in
    /// `*page`, or nullptr at end of file. Blocks only when read-ahead
    /// fell behind. A non-OK status (transient faults that survived all
    /// retries, or kDataLoss for corruption) ends the scan.
    Status NextPage(const uint8_t** page);

   private:
    /// Refills the read-ahead window once half of it has drained.
    void IssueReadAhead();

    BufferManager* bm_;
    FileId file_;
    uint64_t num_pages_;
    uint64_t next_to_issue_ = 0;
    uint64_t next_to_return_ = 0;
    uint32_t num_frames_;
    std::unique_ptr<ReadFrame[]> frames_;  // ring of io_prefetch_depth
    std::vector<Request> batch_;  // one refill's reads, reused
  };

  Scanner OpenScan(FileId file) { return Scanner(this, file); }

  /// Seconds the calling (main) thread spent blocked on reads.
  double main_stall_seconds() const {
    return double(main_stall_ns_.load()) * 1e-9;
  }

  /// Largest per-disk transfer time — "maximum I/O stall time of all the
  /// background worker threads" in Figure 9.
  double max_disk_busy_seconds() const;

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

 private:
  /// A scan's read-ahead frame. The disk worker fills `buffer`, stores
  /// the read's outcome in `status`, then publishes both by setting the
  /// ready flag `filled` (release); the scanner reads them once it sees
  /// `filled` (acquire). A frame with no read in flight is filled.
  struct ReadFrame {
    AlignedBuffer<uint8_t> buffer;
    Status status;
    std::atomic<bool> filled{true};
    uint32_t disk = 0;  // serves the read in flight; scanner-owned
  };

  /// One disk operation, queued by value: a read into `read` when that
  /// is set, else a write of `write_data`.
  struct Request {
    uint64_t disk_page = 0;
    ReadFrame* read = nullptr;
    AlignedBuffer<uint8_t> write_data;  // owned copy of the page
    uint32_t expected_crc = 0;
    bool has_crc = false;
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
  /// Frames a scan may keep in flight right now (see SetReadAheadBudget).
  uint32_t ReadAheadWindow();
  Status ReadWithRetry(DiskWorker* w, const Request& req);
  Status WriteWithRetry(DiskWorker* w, const Request& req);
  /// Plain device read retried on transient errors only (no checksum) —
  /// the write-verify read-back, which compares CRCs itself.
  Status RawReadWithRetry(DiskWorker* w, uint64_t disk_page, uint8_t* dst);
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
