#ifndef HASHJOIN_PERF_PERF_COUNTERS_H_
#define HASHJOIN_PERF_PERF_COUNTERS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/fields.h"

namespace hashjoin {
namespace perf {

/// One hardware-counter reading over a Start()/Stop() window. Counters
/// that could not be opened on this host are absent (std::nullopt), not
/// zero — zero is a legitimate measurement. When the kernel multiplexed
/// the group (more counters than physical PMCs), values are scaled by
/// time_enabled/time_running and `scaled` is set.
struct CounterValues {
  std::optional<uint64_t> cycles;
  std::optional<uint64_t> instructions;
  std::optional<uint64_t> l1d_misses;
  std::optional<uint64_t> llc_misses;
  std::optional<uint64_t> dtlb_misses;
  std::optional<uint64_t> branch_misses;
  std::optional<uint64_t> stalled_cycles;  ///< backend stall cycles

  bool scaled = false;
  double running_fraction = 1.0;  // time_running / time_enabled
  uint64_t time_enabled_ns = 0;

  /// Instructions per cycle, when both counters were measured.
  std::optional<double> Ipc() const;

  /// An absent counter is written as null, so the JSON distinguishes
  /// "not measured" from 0 — the Ailamaki-style breakdown consumers
  /// need that distinction.
  template <class V>
  static constexpr void VisitFields(V& v) {
    v("cycles", &CounterValues::cycles);
    v("instructions", &CounterValues::instructions);
    v("l1d_misses", &CounterValues::l1d_misses);
    v("llc_misses", &CounterValues::llc_misses);
    v("dtlb_misses", &CounterValues::dtlb_misses);
    v("branch_misses", &CounterValues::branch_misses);
    v("stalled_cycles", &CounterValues::stalled_cycles);
    v("ipc", &CounterValues::Ipc);
    v("scaled", &CounterValues::scaled);
    v("running_fraction", &CounterValues::running_fraction);
    v("time_enabled_ns", &CounterValues::time_enabled_ns, fields::kInternal);
  }
};

/// Grouped perf_event_open reader for the paper's measurement set
/// (cycles, instructions, L1D / LLC / dTLB / branch misses — the
/// counters behind Figures 1 and 9-19).
///
/// Degrades gracefully, in order of preference:
///  1. all seven counters in one group (read atomically, same window);
///  2. any openable subset (unsupported events are dropped per-event);
///  3. nothing at all (perf_event_paranoid >= 3, seccomp'd containers,
///     non-Linux): `available()` is false, Start()/Stop() are no-ops and
///     readings report every counter absent — benches keep working and
///     the JSON records carry an explicit unavailability marker.
///
/// Counting covers the calling thread (group reads are incompatible
/// with inheritance into spawned threads), user+kernel, excluded-hv,
/// which needs only perf_event_paranoid <= 2 (the common distro
/// default). Setting HJ_PERF_DISABLE=1 in the environment forces
/// the unavailable path; the bench-smoke tests use it to exercise both
/// schema variants on any host.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();

  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// True when at least one hardware counter opened.
  bool available() const { return available_; }

  /// Why no counters are available ("" when available()).
  const std::string& unavailable_reason() const { return reason_; }

  /// Names of the counters that actually opened, e.g. for logging.
  std::vector<std::string> ActiveCounterNames() const;

  /// Zeroes and enables the group.
  void Start();

  /// Disables the group and captures the reading (values()).
  void Stop();

  /// The reading captured by the last Stop().
  const CounterValues& values() const { return values_; }

  /// True when HJ_PERF_DISABLE=1 forces the unavailable path.
  static bool ForcedOff();

  /// Contents of /proc/sys/kernel/perf_event_paranoid, or -100 when the
  /// file is unreadable (non-Linux).
  static int ParanoidLevel();

 private:
  struct Event;  // pimpl'd: linux-only fields

  bool available_ = false;
  std::string reason_;
  std::vector<Event> events_;
  int group_fd_ = -1;
  CounterValues values_;
};

}  // namespace perf
}  // namespace hashjoin

#endif  // HASHJOIN_PERF_PERF_COUNTERS_H_
