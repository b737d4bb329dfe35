#ifndef HASHJOIN_STORAGE_FAULT_INJECTION_H_
#define HASHJOIN_STORAGE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <unordered_set>

#include "storage/disk.h"
#include "util/aligned.h"
#include "util/random.h"
#include "util/status.h"

namespace hashjoin {

/// A SimulatedDisk wrapped with deterministic, seedable fault injection
/// (DiskConfig::fault). Three fault classes model the real failure modes
/// a disk join must survive:
///
///  * transient read errors  — ReadPage returns kIOError, nothing read;
///  * transient write errors — WritePage returns kIOError, nothing
///    written;
///  * torn writes            — WritePage persists only the first half of
///    the page, fills the rest with junk, and reports success. Only a
///    page checksum can detect this.
///
/// Faults can be probabilistic (seeded rates) or scripted (exact per-disk
/// operation indices). Back-to-back injected faults of one kind are
/// capped at max_consecutive_faults, so a retry loop with more attempts
/// than the cap is guaranteed to reach the underlying disk. With
/// fault.enabled() false the wrapper is a pass-through.
///
/// Thread model matches SimulatedDisk: one owning worker thread performs
/// I/O; the fault counters are atomics so other threads may snapshot
/// them concurrently.
class FaultInjectingDisk {
 public:
  /// `seed_salt` is mixed into the fault seed so each disk of an array
  /// faults independently but reproducibly.
  FaultInjectingDisk(const DiskConfig& config, uint64_t seed_salt = 0);

  Status ReadPage(uint64_t page, void* dst);
  Status WritePage(uint64_t page, const void* src);

  uint64_t num_pages() const { return disk_.num_pages(); }
  const DiskConfig& config() const { return disk_.config(); }
  double busy_seconds() const { return disk_.busy_seconds(); }

  /// Injected-fault counters (for stats plumbing and tests).
  uint64_t injected_read_errors() const { return read_errors_.load(); }
  uint64_t injected_write_errors() const { return write_errors_.load(); }
  uint64_t injected_torn_writes() const { return torn_writes_.load(); }
  uint64_t injected_faults() const {
    return read_errors_.load() + write_errors_.load() + torn_writes_.load();
  }

 private:
  /// One draw of the fault dice for the current operation; bumps the
  /// per-disk operation counter and enforces the consecutive-fault cap.
  bool ShouldInjectError(double rate);
  bool ShouldInjectTear();

  SimulatedDisk disk_;
  FaultConfig fault_;
  Rng rng_;
  std::unordered_set<uint64_t> scripted_ops_;
  uint64_t op_index_ = 0;
  uint32_t consecutive_errors_ = 0;
  uint32_t consecutive_tears_ = 0;
  AlignedBuffer<uint8_t> tear_scratch_;
  std::atomic<uint64_t> read_errors_{0};
  std::atomic<uint64_t> write_errors_{0};
  std::atomic<uint64_t> torn_writes_{0};
};

}  // namespace hashjoin

#endif  // HASHJOIN_STORAGE_FAULT_INJECTION_H_
