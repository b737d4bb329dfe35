#include "storage/disk.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hashjoin {

namespace {

/// Page frames of destroyed disks, one stack per page size.
class FrameFreeList {
 public:
  /// Appends `n` frames of `page_size` bytes to `*out`, popping the free
  /// list first and allocating only what it lacks.
  void Take(uint32_t page_size, uint64_t n,
            std::vector<AlignedBuffer<uint8_t>>* out) HJ_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      std::vector<AlignedBuffer<uint8_t>>& stack = free_[page_size];
      for (; n > 0 && !stack.empty(); --n) {
        out->push_back(std::move(stack.back()));
        stack.pop_back();
      }
    }
    for (; n > 0; --n) {
      void* raw = AlignedAlloc(page_size, kCacheLineSize);
      out->emplace_back(static_cast<uint8_t*>(raw));
    }
  }

  /// Moves every frame of `*frames` onto the list, leaving it empty.
  void Give(uint32_t page_size, std::vector<AlignedBuffer<uint8_t>>* frames)
      HJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::vector<AlignedBuffer<uint8_t>>& stack = free_[page_size];
    for (AlignedBuffer<uint8_t>& f : *frames) stack.push_back(std::move(f));
    frames->clear();
  }

  uint64_t Size(uint32_t page_size) HJ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = free_.find(page_size);
    return it == free_.end() ? 0 : it->second.size();
  }

 private:
  Mutex mu_;
  std::unordered_map<uint32_t, std::vector<AlignedBuffer<uint8_t>>> free_
      HJ_GUARDED_BY(mu_);
};

/// Never destroyed, so a disk that outlives static destruction can still
/// return its frames.
FrameFreeList& Frames() {
  static FrameFreeList* list = new FrameFreeList;
  return *list;
}

}  // namespace

SimulatedDisk::SimulatedDisk(const DiskConfig& config) : config_(config) {
  HJ_CHECK(config_.bandwidth_mb_per_s > 0);
  page_transfer_us_ =
      double(config_.page_size) / (config_.bandwidth_mb_per_s * 1e6) * 1e6 +
      config_.request_latency_us;
}

SimulatedDisk::~SimulatedDisk() { Frames().Give(config_.page_size, &store_); }

uint64_t SimulatedDisk::FreeFrames(uint32_t page_size) {
  return Frames().Size(page_size);
}

void SimulatedDisk::ChargeTransfer() {
  busy_us_ += static_cast<uint64_t>(page_transfer_us_);
  // Queue-server pacing: an idle disk does not bank time, and the sleep
  // debt is paid in chunks large enough to dodge timer granularity.
  double now_us = double(wall_.ElapsedNanos()) * 1e-3;
  if (virtual_us_ < now_us) virtual_us_ = now_us;
  virtual_us_ += page_transfer_us_;
  double debt_us = virtual_us_ - now_us;
  if (debt_us > 2000.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(debt_us)));
  }
}

Status SimulatedDisk::ReadPage(uint64_t page, void* dst) {
  if (page >= store_.size()) {
    return Status::OutOfRange("read past end of disk");
  }
  ChargeTransfer();
  std::memcpy(dst, store_[page].get(), config_.page_size);
  return Status::OK();
}

Status SimulatedDisk::WritePage(uint64_t page, const void* src) {
  if (page >= store_.size()) {
    const uint64_t first_new = store_.size();
    Frames().Take(config_.page_size, page + 1 - first_new, &store_);
    // Frames a sparse write skips may be recycled: zero them so their
    // old bytes stay unreadable. The written frame is overwritten whole.
    for (uint64_t p = first_new; p < page; ++p) {
      std::memset(store_[p].get(), 0, config_.page_size);
    }
  }
  ChargeTransfer();
  std::memcpy(store_[page].get(), src, config_.page_size);
  return Status::OK();
}

}  // namespace hashjoin
