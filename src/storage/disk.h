#ifndef HASHJOIN_STORAGE_DISK_H_
#define HASHJOIN_STORAGE_DISK_H_

#include <cstdint>
#include <vector>

#include "util/aligned.h"
#include "util/status.h"
#include "util/timer.h"

namespace hashjoin {

/// Deterministic fault-injection knobs for one simulated disk. All
/// injected faults are seeded, so a run with the same seed and the same
/// operation sequence injects the same faults — the fault-tolerance
/// tests rely on this to assert exact recovery counters.
struct FaultConfig {
  /// Probability a ReadPage returns a transient kIOError (no transfer).
  double read_error_rate = 0;
  /// Probability a WritePage returns a transient kIOError (no write).
  double write_error_rate = 0;
  /// Probability a WritePage tears: only the first half of the page
  /// reaches the platter, the rest is junk, and the call reports OK —
  /// silent corruption only a page checksum can catch.
  double torn_page_rate = 0;
  /// Seed of the per-disk fault RNG (the buffer manager salts it with
  /// the disk id so disks fault independently but reproducibly).
  uint64_t seed = 0x5EEDu;
  /// Upper bound on back-to-back injected faults of one kind, so a
  /// bounded retry loop is guaranteed to eventually see a clean
  /// operation. Keep below the retry policy's max_attempts.
  uint32_t max_consecutive_faults = 3;
  /// Scripted faults: per-disk operation indices (reads and writes
  /// share one counter) that return a transient error regardless of the
  /// probabilistic rates. Lets unit tests place a fault exactly.
  std::vector<uint64_t> scripted_error_ops;

  bool enabled() const {
    return read_error_rate > 0 || write_error_rate > 0 ||
           torn_page_rate > 0 || !scripted_error_ops.empty();
  }
};

/// Timing model for one simulated disk.
struct DiskConfig {
  /// Sustained sequential transfer rate. The paper's Seagate Cheetah
  /// X15 36LP peaks at 68 MB/s; the default is lower so the scaled-down
  /// workloads reproduce the same CPU-bound crossover shape.
  double bandwidth_mb_per_s = 40.0;
  /// Fixed per-request overhead (controller + sequential positioning).
  uint32_t request_latency_us = 50;
  uint32_t page_size = 8 * 1024;
  /// Fault injection (off by default: all rates zero, no script).
  FaultConfig fault;
};

/// A RAM-backed disk that charges transfer time by busy-waiting/sleeping.
/// This substitutes for the paper's raw SCSI partitions: Figure 9 needs
/// only the relative bandwidth of disks vs. the CPU, not real platters
/// (see DESIGN.md §3). Thread-safe for a single owning worker thread.
///
/// Page frames are recycled: a destroyed disk hands its frames to a
/// process-wide free list kept per page size, and a growing disk takes
/// frames from that list before it allocates. A disk per query thus
/// reuses the previous query's memory instead of faulting in fresh pages
/// and returning them to the OS at teardown. The list receives only
/// frames that disks allocated, so it never holds more frames than were
/// live at once. No read can see a recycled frame's old bytes: a read
/// past the disk's own pages is kOutOfRange, a write fills its whole
/// frame, and a frame that a sparse write skips over is zeroed.
class SimulatedDisk {
 public:
  explicit SimulatedDisk(const DiskConfig& config);
  /// Returns every page frame to the free list.
  ~SimulatedDisk();

  SimulatedDisk(const SimulatedDisk&) = delete;
  SimulatedDisk& operator=(const SimulatedDisk&) = delete;

  /// Blocking page read into dst (page_size bytes); sleeps to model the
  /// transfer time.
  Status ReadPage(uint64_t page, void* dst);

  /// Blocking page write from src, growing the disk to `page + 1` pages
  /// when it is shorter; sleeps to model the transfer time.
  Status WritePage(uint64_t page, const void* src);

  uint64_t num_pages() const { return store_.size(); }
  const DiskConfig& config() const { return config_; }

  /// Total seconds this disk spent transferring (its utilization).
  double busy_seconds() const { return double(busy_us_) * 1e-6; }

  /// Frames of `page_size` bytes waiting in the free list.
  static uint64_t FreeFrames(uint32_t page_size);

 private:
  void ChargeTransfer();

  DiskConfig config_;
  std::vector<AlignedBuffer<uint8_t>> store_;  // one frame per page
  uint64_t busy_us_ = 0;
  double page_transfer_us_ = 0;
  // Pacer state: the disk's virtual clock runs `page_transfer_us_` ahead
  // per request; sleeps amortize the debt in >=2ms chunks so OS timer
  // granularity does not inflate the effective service time.
  WallTimer wall_;
  double virtual_us_ = 0;
};

}  // namespace hashjoin

#endif  // HASHJOIN_STORAGE_DISK_H_
