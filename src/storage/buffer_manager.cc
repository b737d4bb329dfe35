#include "storage/buffer_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "util/checksum.h"
#include "util/logging.h"

namespace hashjoin {

uint32_t RetryPolicy::BackoffUs(uint32_t attempt) const {
  double us = double(initial_backoff_us) * std::pow(multiplier, attempt);
  if (us > double(max_backoff_us)) us = double(max_backoff_us);
  return uint32_t(us);
}

BufferManager::BufferManager(const BufferManagerConfig& config)
    : config_(config) {
  HJ_CHECK(config_.num_disks >= 1);
  HJ_CHECK(config_.stripe_unit_pages >= 1);
  HJ_CHECK(config_.io_prefetch_depth >= 1);
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
  for (auto& w : disks_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(worker); });
  }
}

BufferManager::~BufferManager() {
  for (auto& w : disks_) {
    auto stop = std::make_unique<Request>();
    stop->type = Request::Type::kStop;
    {
      MutexLock lock(w->mu);
      w->queue.push_back(std::move(stop));
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

Status BufferManager::ReadWithRetry(DiskWorker* w, const Request& req) {
  Status last;
  for (uint32_t attempt = 0; attempt < config_.retry.max_attempts;
       ++attempt) {
    bytes_read_.fetch_add(config_.disk.page_size, std::memory_order_relaxed);
    last = w->disk->ReadPage(req.disk_page, req.read_dst);
    if (!last.ok()) {
      if (last.code() != StatusCode::kIOError) return last;  // permanent
      if (attempt + 1 < config_.retry.max_attempts) {
        read_retries_.fetch_add(1, std::memory_order_relaxed);
        Backoff(attempt);
      }
      continue;
    }
    if (req.has_crc &&
        Crc32(req.read_dst, config_.disk.page_size) != req.expected_crc) {
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      last = Status::DataLoss("page checksum mismatch");
      if (attempt + 1 < config_.retry.max_attempts) {
        read_retries_.fetch_add(1, std::memory_order_relaxed);
        Backoff(attempt);
      }
      continue;
    }
    return Status::OK();
  }
  return last;
}

Status BufferManager::RawReadWithRetry(DiskWorker* w, uint64_t disk_page,
                                       uint8_t* dst) {
  Status last;
  for (uint32_t attempt = 0; attempt < config_.retry.max_attempts;
       ++attempt) {
    bytes_read_.fetch_add(config_.disk.page_size, std::memory_order_relaxed);
    last = w->disk->ReadPage(disk_page, dst);
    if (last.ok() || last.code() != StatusCode::kIOError) return last;
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
    last = w->disk->WritePage(req.disk_page, req.write_data.get());
    if (!last.ok()) {
      if (last.code() != StatusCode::kIOError) return last;  // permanent
      if (attempt + 1 < config_.retry.max_attempts) {
        write_retries_.fetch_add(1, std::memory_order_relaxed);
        Backoff(attempt);
      }
      continue;
    }
    if (config_.verify_writes && req.has_crc) {
      // Read the page back and compare checksums before declaring the
      // write durable — the only way to catch a torn write, which
      // reports success.
      Status rb = RawReadWithRetry(w, req.disk_page, w->verify_scratch.get());
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
  for (;;) {
    std::unique_ptr<Request> req;
    {
      MutexLock lock(w->mu);
      while (w->queue.empty()) w->cv.Wait(lock);
      req = std::move(w->queue.front());
      w->queue.pop_front();
    }
    switch (req->type) {
      case Request::Type::kStop:
        return;
      case Request::Type::kRead:
        req->done.set_value(ReadWithRetry(w, *req));
        break;
      case Request::Type::kWrite: {
        Status s = WriteWithRetry(w, *req);
        if (!s.ok()) {
          MutexLock lock(writes_mu_);
          if (first_write_error_.ok()) first_write_error_ = s;
        }
        req->done.set_value(std::move(s));
        uint64_t left = pending_writes_.fetch_sub(1) - 1;
        if (left == 0) {
          // Taking writes_mu_ before notifying orders this decrement
          // with FlushWrites' predicate check — without it the notify
          // could fire between that check and the wait.
          MutexLock lock(writes_mu_);
          writes_cv_.NotifyAll();
        }
        break;
      }
    }
  }
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
                                   const void* data) {
  uint32_t disk_id = DiskOf(file, page_index);
  DiskWorker* w = disks_[disk_id].get();
  auto req = std::make_unique<Request>();
  req->type = Request::Type::kWrite;
  void* copy = AlignedAlloc(config_.disk.page_size, kCacheLineSize);
  std::memcpy(copy, data, config_.disk.page_size);
  req->write_data = AlignedBuffer<uint8_t>(static_cast<uint8_t*>(copy));
  if (config_.checksum_pages) {
    req->expected_crc = Crc32(req->write_data.get(), config_.disk.page_size);
    req->has_crc = true;
  }
  {
    MutexLock lock(files_mu_);
    FileMeta& meta = files_[file];
    if (page_index < meta.pages.size()) {
      req->disk_page = meta.pages[page_index].disk_page;
      meta.pages[page_index].crc = req->expected_crc;
    } else {
      HJ_CHECK(page_index == meta.pages.size())
          << "file pages must be written densely";
      MutexLock wlock(w->mu);
      PagePlacement placement;
      placement.disk = disk_id;
      placement.disk_page = w->next_free_page++;
      placement.crc = req->expected_crc;
      req->disk_page = placement.disk_page;
      meta.pages.push_back(placement);
    }
  }
  pending_writes_.fetch_add(1);
  {
    MutexLock lock(w->mu);
    w->queue.push_back(std::move(req));
  }
  w->cv.NotifyOne();
}

Status BufferManager::FlushWrites() {
  WallTimer wait;
  MutexLock lock(writes_mu_);
  while (pending_writes_.load() != 0) writes_cv_.Wait(lock);
  main_stall_ns_.fetch_add(wait.ElapsedNanos());
  Status s = std::move(first_write_error_);
  first_write_error_ = Status::OK();
  return s;
}

std::future<Status> BufferManager::EnqueueRead(FileId file,
                                               uint64_t page_index,
                                               uint8_t* dst) {
  uint32_t disk_id;
  auto req = std::make_unique<Request>();
  req->type = Request::Type::kRead;
  req->read_dst = dst;
  {
    MutexLock lock(files_mu_);
    const FileMeta& meta = files_[file];
    HJ_CHECK(page_index < meta.pages.size()) << "read past end of file";
    disk_id = meta.pages[page_index].disk;
    req->disk_page = meta.pages[page_index].disk_page;
    if (config_.checksum_pages) {
      req->expected_crc = meta.pages[page_index].crc;
      req->has_crc = true;
    }
  }
  std::future<Status> fut = req->done.get_future();
  DiskWorker* w = disks_[disk_id].get();
  {
    MutexLock lock(w->mu);
    w->queue.push_back(std::move(req));
  }
  w->cv.NotifyOne();
  return fut;
}

std::vector<double> BufferManager::DiskBusySeconds() const {
  std::vector<double> result;
  result.reserve(disks_.size());
  for (const auto& w : disks_) result.push_back(w->disk->busy_seconds());
  return result;
}

double BufferManager::max_disk_busy_seconds() const {
  double mx = 0;
  for (const auto& w : disks_) {
    mx = std::max(mx, w->disk->busy_seconds());
  }
  return mx;
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
    : bm_(bm), file_(file), num_pages_(bm->FileNumPages(file)) {
  frames_.resize(bm_->config_.io_prefetch_depth);
  for (auto& f : frames_) {
    void* raw = AlignedAlloc(bm_->config_.disk.page_size, kCacheLineSize);
    f.buffer = AlignedBuffer<uint8_t>(static_cast<uint8_t*>(raw));
  }
  IssueReadAhead();
}

BufferManager::Scanner::~Scanner() {
  for (auto& f : frames_) {
    if (f.ready.valid()) f.ready.wait();
  }
}

void BufferManager::Scanner::IssueReadAhead() {
  // Leave one frame un-reissued: the page most recently handed to the
  // caller must stay valid until the next NextPage() call. The live
  // window re-shrinks under a broker budget (frames_ stays allocated at
  // full depth; only the in-flight count contracts).
  uint64_t window = bm_->ReadAheadWindow();
  while (next_to_issue_ < num_pages_ &&
         next_to_issue_ + 1 < next_to_return_ + window) {
    Frame& f = frames_[next_to_issue_ % frames_.size()];
    f.ready = bm_->EnqueueRead(file_, next_to_issue_, f.buffer.get());
    ++next_to_issue_;
  }
}

Status BufferManager::Scanner::NextPage(const uint8_t** page) {
  *page = nullptr;
  if (next_to_return_ >= num_pages_) return Status::OK();
  Frame& f = frames_[next_to_return_ % frames_.size()];
  // Only genuine not-ready waits count as main-thread I/O stall; a
  // ready future's get() is bookkeeping, not I/O.
  if (f.ready.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    WallTimer wait;
    f.ready.wait();
    bm_->main_stall_ns_.fetch_add(wait.ElapsedNanos());
  }
  HJ_RETURN_IF_ERROR(f.ready.get());
  ++next_to_return_;
  IssueReadAhead();
  *page = f.buffer.get();
  return Status::OK();
}

}  // namespace hashjoin
