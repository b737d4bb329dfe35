#include "storage/buffer_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "util/checksum.h"
#include "util/logging.h"

namespace hashjoin {

uint32_t RetryPolicy::BackoffUs(uint32_t attempt) const {
  double us = double(initial_backoff_us) * std::pow(multiplier, attempt);
  if (us > double(max_backoff_us)) us = double(max_backoff_us);
  return uint32_t(us);
}

void PageBuffer::Release() {
  if (bytes_ != nullptr) pool_->Give(std::exchange(bytes_, nullptr));
}

PagePool::~PagePool() {
  MutexLock lock(mu_);
  HJ_CHECK(free_.size() == allocated_)
      << "a PageBuffer outlived the BufferManager that issued it";
  for (uint8_t* bytes : free_) AlignedFree(bytes);
}

PageBuffer PagePool::Take() {
  {
    MutexLock lock(mu_);
    if (!free_.empty()) {
      uint8_t* bytes = free_.back();
      free_.pop_back();
      return PageBuffer(this, bytes);
    }
    ++allocated_;
  }
  void* raw = AlignedAlloc(page_size_, kCacheLineSize);
  return PageBuffer(this, static_cast<uint8_t*>(raw));
}

void PagePool::Give(uint8_t* bytes) {
  MutexLock lock(mu_);
  free_.push_back(bytes);
}

uint64_t PagePool::pages_allocated() const {
  MutexLock lock(mu_);
  return allocated_;
}

BufferManager::BufferManager(const BufferManagerConfig& config)
    : config_(config), pages_(config.disk.page_size) {
  HJ_CHECK(config_.num_disks >= 1);
  HJ_CHECK(config_.stripe_unit_pages >= 1);
  // One frame holds the page the caller reads, one takes the next read:
  // a one-frame window would never issue a read.
  HJ_CHECK(config_.io_prefetch_depth >= 2);
  // The read-back is compared with the page's CRC, which only
  // checksum_pages keeps: without it write verification checks nothing.
  HJ_CHECK(!config_.verify_writes || config_.checksum_pages)
      << "verify_writes requires checksum_pages";
  HJ_CHECK(config_.retry.max_attempts >= 1);
  // A bounded retry loop can only outlast a bounded fault burst.
  if (config_.disk.fault.enabled()) {
    HJ_CHECK(config_.retry.max_attempts >
             config_.disk.fault.max_consecutive_faults)
        << "retry budget must exceed the injector's consecutive-fault cap";
  }
  for (uint32_t d = 0; d < config_.num_disks; ++d) {
    auto w = std::make_unique<DiskWorker>();
    w->disk = std::make_unique<FaultInjectingDisk>(config_.disk,
                                                   /*seed_salt=*/d + 1);
    if (config_.verify_writes) {
      void* raw = AlignedAlloc(config_.disk.page_size, kCacheLineSize);
      w->verify_scratch = AlignedBuffer<uint8_t>(static_cast<uint8_t*>(raw));
    }
    disks_.push_back(std::move(w));
  }
  {
    MutexLock lock(files_mu_);
    next_free_page_.assign(config_.num_disks, 0);
  }
  for (auto& w : disks_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(worker); });
  }
}

BufferManager::~BufferManager() {
  // Each worker serves what is still queued, then exits.
  for (auto& w : disks_) {
    {
      MutexLock lock(w->mu);
      w->stopping = true;
    }
    w->cv.NotifyOne();
  }
  for (auto& w : disks_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void BufferManager::Backoff(uint32_t attempt) {
  uint32_t us = config_.retry.BackoffUs(attempt);
  if (us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

Status BufferManager::ReadWithRetry(DiskWorker* w, uint64_t disk_page,
                                    uint8_t* dst,
                                    std::optional<uint32_t> crc) {
  Status last;
  for (uint32_t attempt = 0; attempt < config_.retry.max_attempts;
       ++attempt) {
    bytes_read_.fetch_add(config_.disk.page_size, std::memory_order_relaxed);
    last = w->disk->ReadPage(disk_page, dst);
    if (!last.ok()) {
      if (last.code() != StatusCode::kIOError) return last;  // permanent
    } else if (crc && Crc32(dst, config_.disk.page_size) != *crc) {
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      last = Status::DataLoss("page checksum mismatch");
    } else {
      return Status::OK();
    }
    if (attempt + 1 < config_.retry.max_attempts) {
      read_retries_.fetch_add(1, std::memory_order_relaxed);
      Backoff(attempt);
    }
  }
  return last;
}

Status BufferManager::WriteWithRetry(DiskWorker* w, const Request& req) {
  Status last;
  for (uint32_t attempt = 0; attempt < config_.retry.max_attempts;
       ++attempt) {
    bytes_written_.fetch_add(config_.disk.page_size,
                             std::memory_order_relaxed);
    last = w->disk->WritePage(req.disk_page, req.write_bytes);
    if (!last.ok()) {
      if (last.code() != StatusCode::kIOError) return last;  // permanent
      if (attempt + 1 < config_.retry.max_attempts) {
        write_retries_.fetch_add(1, std::memory_order_relaxed);
        Backoff(attempt);
      }
      continue;
    }
    if (config_.verify_writes) {
      // Read the page back and compare checksums before declaring the
      // write durable — the only way to catch a torn write, which
      // reports success.
      Status rb = ReadWithRetry(w, req.disk_page, w->verify_scratch.get(),
                                std::nullopt);
      if (!rb.ok()) return rb;
      if (Crc32(w->verify_scratch.get(), config_.disk.page_size) !=
          req.expected_crc) {
        write_verify_failures_.fetch_add(1, std::memory_order_relaxed);
        last = Status::DataLoss("write verification failed (torn page)");
        if (attempt + 1 < config_.retry.max_attempts) {
          write_retries_.fetch_add(1, std::memory_order_relaxed);
          Backoff(attempt);
        }
        continue;
      }
    }
    return Status::OK();
  }
  return last;
}

void BufferManager::WorkerLoop(DiskWorker* w) {
  std::vector<Request> batch;
  for (;;) {
    {
      MutexLock lock(w->mu);
      while (w->queue.empty() && !w->stopping) {
        w->idle = true;
        w->cv.Wait(lock);
      }
      w->idle = false;
      if (w->queue.empty()) return;  // stopping, and every request served
      // Take the whole queue: one wake-up serves every queued request.
      batch.swap(w->queue);
    }
    for (Request& req : batch) {
      if (req.read != nullptr) {
        req.read->status = ReadWithRetry(
            w, req.disk_page, req.read->buffer.data(),
            config_.checksum_pages ? std::optional(req.expected_crc)
                                   : std::nullopt);
        // The frame may be freed as soon as it reads filled.
        req.read->filled.store(true, std::memory_order_release);
        w->reads_done.fetch_add(1, std::memory_order_release);
        w->reads_done.notify_all();
      } else {
        Status s = WriteWithRetry(w, req);
        req.write_data = PageBuffer();  // back to the pool before retiring
        RetireWrite(std::move(s));
      }
    }
    batch.clear();
  }
}

void BufferManager::RetireWrite(Status s) {
  if (!s.ok()) {
    MutexLock lock(writes_mu_);
    if (first_write_error_.ok()) first_write_error_ = std::move(s);
  }
  if (pending_writes_.fetch_sub(1) == 1) {
    // Taking writes_mu_ before notifying orders this decrement with
    // FlushWrites' predicate check — without it the notify could fire
    // between that check and the wait.
    MutexLock lock(writes_mu_);
    writes_cv_.NotifyAll();
  }
}

void BufferManager::Submit(DiskWorker* w, Request* reqs, size_t n,
                           size_t wake_at) {
  bool wake = false;
  {
    MutexLock lock(w->mu);
    for (size_t i = 0; i < n; ++i) w->queue.push_back(std::move(reqs[i]));
    if (w->idle && w->queue.size() >= wake_at) {
      w->idle = false;  // posted: later submissions need not notify
      wake = true;
    }
  }
  if (wake) w->cv.NotifyOne();
}

BufferManager::FileId BufferManager::CreateFile() {
  MutexLock lock(files_mu_);
  files_.emplace_back();
  return FileId(files_.size() - 1);
}

uint64_t BufferManager::FileNumPages(FileId file) const {
  MutexLock lock(files_mu_);
  return files_[file].pages.size();
}

void BufferManager::WritePageAsync(FileId file, uint64_t page_index,
                                   PageBuffer page) {
  HJ_CHECK(page) << "WritePageAsync of an empty PageBuffer";
  Request req;
  req.write_bytes = page.data();
  req.write_data = std::move(page);
  QueueWrite(file, page_index, std::move(req));
}

Status BufferManager::WritePages(FileId file,
                                 std::span<const uint8_t* const> pages) {
  for (size_t i = 0; i < pages.size(); ++i) {
    Request req;
    req.write_bytes = pages[i];
    QueueWrite(file, i, std::move(req));
  }
  // The caller's bytes are lent only until every write has retired.
  return FlushWrites();
}

void BufferManager::QueueWrite(FileId file, uint64_t page_index,
                               Request req) {
  const uint32_t disk_id = DiskOf(file, page_index);
  if (config_.checksum_pages) {
    req.expected_crc = Crc32(req.write_bytes, config_.disk.page_size);
  }
  {
    MutexLock lock(files_mu_);
    FileMeta& meta = files_[file];
    if (page_index < meta.pages.size()) {
      req.disk_page = meta.pages[page_index].disk_page;
      meta.pages[page_index].crc = req.expected_crc;
    } else {
      HJ_CHECK(page_index == meta.pages.size())
          << "file pages must be written densely";
      req.disk_page = next_free_page_[disk_id]++;
      meta.pages.push_back(PagePlacement{req.disk_page, req.expected_crc});
    }
  }
  pending_writes_.fetch_add(1);
  // Write-behind: an idle worker sleeps until a stripe unit of requests
  // has queued (or a flush, a scan or shutdown wakes it).
  Submit(disks_[disk_id].get(), &req, 1, config_.stripe_unit_pages);
}

Status BufferManager::FlushWrites() {
  WallTimer wait;
  for (auto& w : disks_) Submit(w.get(), nullptr, 0, 1);
  MutexLock lock(writes_mu_);
  while (pending_writes_.load() != 0) writes_cv_.Wait(lock);
  main_stall_ns_.fetch_add(wait.ElapsedNanos());
  Status s = std::move(first_write_error_);
  first_write_error_ = Status::OK();
  return s;
}

void BufferManager::SubmitReads(FileId file, uint64_t begin, uint64_t end,
                                ReadFrame* frames, uint32_t num_frames,
                                std::vector<Request>* batch) {
  // Stripe runs go round-robin over the disks, so the disk of `begin`'s
  // run plus i holds runs i, i + num_disks, ... Building the requests
  // disk by disk in that order, each disk's in page order, makes every
  // disk's share one contiguous submission, the first disk needed first.
  const uint64_t unit = config_.stripe_unit_pages;
  const uint64_t num_disks = disks_.size();
  batch->clear();
  {
    MutexLock lock(files_mu_);
    const FileMeta& meta = files_[file];
    HJ_CHECK(end <= meta.pages.size()) << "read past end of file";
    for (uint64_t i = 0; i < num_disks; ++i) {
      for (uint64_t run = begin / unit + i; run * unit < end;
           run += num_disks) {
        const uint32_t d = DiskOf(file, run * unit);
        const uint64_t run_end = std::min(end, (run + 1) * unit);
        for (uint64_t p = std::max(begin, run * unit); p < run_end; ++p) {
          Request req;
          req.disk_page = meta.pages[p].disk_page;
          req.expected_crc = meta.pages[p].crc;
          req.read = &frames[p % num_frames];
          req.read->filled.store(false, std::memory_order_relaxed);
          req.read->disk = d;
          batch->push_back(std::move(req));
        }
      }
    }
  }
  for (size_t at = 0; at < batch->size();) {
    const uint32_t d = (*batch)[at].read->disk;
    size_t n = 1;
    while (at + n < batch->size() && (*batch)[at + n].read->disk == d) ++n;
    Submit(disks_[d].get(), batch->data() + at, n, 1);
    at += n;
  }
  batch->clear();
}

void BufferManager::AwaitRead(const ReadFrame& f) {
  DiskWorker* w = disks_[f.disk].get();
  uint32_t seen = w->reads_done.load(std::memory_order_acquire);
  while (!f.filled.load(std::memory_order_acquire)) {
    w->reads_done.wait(seen, std::memory_order_acquire);
    seen = w->reads_done.load(std::memory_order_acquire);
  }
}

std::vector<double> BufferManager::DiskBusySeconds() const {
  std::vector<double> result;
  result.reserve(disks_.size());
  for (const auto& w : disks_) result.push_back(w->disk->busy_seconds());
  return result;
}

uint32_t BufferManager::ReadAheadWindow() {
  const BudgetView budget = readahead_budget_.load(std::memory_order_acquire);
  uint32_t depth = config_.io_prefetch_depth;
  if (!budget) return depth;
  uint64_t frames = budget.bytes() / config_.disk.page_size;
  // Floor of 2: one frame holds the page the caller is consuming, one
  // keeps the scan moving — a zero grant must throttle, never wedge.
  uint32_t window = uint32_t(std::min<uint64_t>(frames, depth));
  if (window < 2) window = 2;
  if (window < depth) {
    readahead_throttles_.fetch_add(1, std::memory_order_relaxed);
  }
  return window;
}

IoRecoveryStats BufferManager::recovery_stats() const {
  IoRecoveryStats s;
  s.read_retries = read_retries_.load();
  s.write_retries = write_retries_.load();
  s.checksum_failures = checksum_failures_.load();
  s.write_verify_failures = write_verify_failures_.load();
  for (const auto& w : disks_) s.injected_faults += w->disk->injected_faults();
  s.bytes_read = bytes_read_.load();
  s.bytes_written = bytes_written_.load();
  return s;
}

uint64_t BufferManager::FileBytes(FileId file) const {
  return FileNumPages(file) * uint64_t(config_.disk.page_size);
}

BufferManager::Scanner::Scanner(BufferManager* bm, FileId file)
    : bm_(bm),
      file_(file),
      num_pages_(bm->FileNumPages(file)),
      num_frames_(uint32_t(
          std::min<uint64_t>(bm->config_.io_prefetch_depth, num_pages_))),
      frames_(std::make_unique<ReadFrame[]>(num_frames_)) {
  for (uint32_t i = 0; i < num_frames_; ++i) {
    frames_[i].buffer = bm_->pages_.Take();
  }
  IssueReadAhead();
}

BufferManager::Scanner::~Scanner() {
  if (frames_ == nullptr) return;  // moved from
  // frames_ gives the buffers back to the pool once every read is done.
  for (uint32_t i = 0; i < num_frames_; ++i) bm_->AwaitRead(frames_[i]);
}

void BufferManager::Scanner::IssueReadAhead() {
  // Leave one frame un-reissued: the page most recently handed to the
  // caller must stay valid until the next NextPage() call. The live
  // window re-shrinks under a broker budget (frames_ keeps its size;
  // only the in-flight count contracts). It never outgrows frames_: the
  // pages from the one held to the last issued number at most
  // min(window, num_pages_) <= num_frames_. Refilling only once
  // half the live window has drained makes each refill one submission —
  // one lock and at most one wake-up — per disk.
  const uint64_t live = bm_->ReadAheadWindow() - 1;
  const uint64_t in_flight = next_to_issue_ - next_to_return_;
  if (next_to_issue_ >= num_pages_ || in_flight > live / 2) return;
  const uint64_t end = std::min(num_pages_, next_to_return_ + live);
  bm_->SubmitReads(file_, next_to_issue_, end, frames_.get(), num_frames_,
                   &batch_);
  next_to_issue_ = end;
}

Status BufferManager::Scanner::NextPage(const uint8_t** page) {
  *page = nullptr;
  can_keep_ = false;
  if (next_to_return_ >= num_pages_) return Status::OK();
  ReadFrame& f = frames_[next_to_return_ % num_frames_];
  // Only genuine not-ready waits count as main-thread I/O stall.
  if (!f.filled.load(std::memory_order_acquire)) {
    WallTimer wait;
    bm_->AwaitRead(f);
    bm_->main_stall_ns_.fetch_add(wait.ElapsedNanos());
  }
  HJ_RETURN_IF_ERROR(f.status);
  ++next_to_return_;
  IssueReadAhead();
  *page = f.buffer.data();
  can_keep_ = true;
  return Status::OK();
}

PageBuffer BufferManager::Scanner::KeepPage() {
  HJ_CHECK(can_keep_) << "KeepPage without a page from NextPage to keep";
  can_keep_ = false;
  // The page just returned is never in flight: IssueReadAhead leaves its
  // frame alone until the next NextPage.
  ReadFrame& f = frames_[(next_to_return_ - 1) % num_frames_];
  PageBuffer kept = std::move(f.buffer);
  f.buffer = bm_->pages_.Take();
  return kept;
}

}  // namespace hashjoin
