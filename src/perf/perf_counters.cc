#include "perf/perf_counters.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "util/logging.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace hashjoin {
namespace perf {

std::optional<double> CounterValues::Ipc() const {
  if (!cycles.has_value() || !instructions.has_value() || *cycles == 0) {
    return std::nullopt;
  }
  return double(*instructions) / double(*cycles);
}

struct PerfCounters::Event {
  const char* name;
  int fd = -1;
  uint64_t id = 0;
  std::optional<uint64_t>* slot = nullptr;
};

bool PerfCounters::ForcedOff() {
  const char* v = std::getenv("HJ_PERF_DISABLE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

int PerfCounters::ParanoidLevel() {
  std::ifstream f("/proc/sys/kernel/perf_event_paranoid");
  int level = -100;
  if (f) f >> level;
  return level;
}

#if defined(__linux__)

namespace {

int PerfEventOpen(perf_event_attr* attr, int group_fd) {
  return int(syscall(SYS_perf_event_open, attr, /*pid=*/0, /*cpu=*/-1,
                     group_fd, /*flags=*/0));
}

perf_event_attr MakeAttr(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  // inherit=1 (counting spawned worker threads) is incompatible with
  // PERF_FORMAT_GROUP reads, so the group counts the calling thread
  // only; multi-threaded records carry wall time + per-thread sim stats
  // instead of a cross-thread counter sum.
  attr.inherit = 0;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_ID |
                     PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return attr;
}

uint64_t CacheConfig(uint64_t cache, uint64_t op, uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

}  // namespace

PerfCounters::PerfCounters() {
  if (ForcedOff()) {
    reason_ = "disabled by HJ_PERF_DISABLE";
    return;
  }

  struct Spec {
    const char* name;
    uint32_t type;
    uint64_t config;
    std::optional<uint64_t> CounterValues::* slot;
  };
  const Spec specs[] = {
      {"cycles", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES,
       &CounterValues::cycles},
      {"instructions", PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS,
       &CounterValues::instructions},
      {"l1d_misses", PERF_TYPE_HW_CACHE,
       CacheConfig(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                   PERF_COUNT_HW_CACHE_RESULT_MISS),
       &CounterValues::l1d_misses},
      {"llc_misses", PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES,
       &CounterValues::llc_misses},
      {"dtlb_misses", PERF_TYPE_HW_CACHE,
       CacheConfig(PERF_COUNT_HW_CACHE_DTLB, PERF_COUNT_HW_CACHE_OP_READ,
                   PERF_COUNT_HW_CACHE_RESULT_MISS),
       &CounterValues::dtlb_misses},
      {"branch_misses", PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES,
       &CounterValues::branch_misses},
      {"stalled_cycles", PERF_TYPE_HARDWARE,
       PERF_COUNT_HW_STALLED_CYCLES_BACKEND, &CounterValues::stalled_cycles},
  };

  int first_errno = 0;
  for (const Spec& s : specs) {
    perf_event_attr attr = MakeAttr(s.type, s.config);
    int fd = PerfEventOpen(&attr, group_fd_);
    if (fd < 0) {
      if (first_errno == 0) first_errno = errno;
      continue;  // this event is unsupported here; keep the rest
    }
    Event e;
    e.name = s.name;
    e.fd = fd;
    e.slot = &(values_.*(s.slot));
    uint64_t id = 0;
    if (ioctl(fd, PERF_EVENT_IOC_ID, &id) == 0) {
      e.id = id;
    } else {
      close(fd);
      continue;
    }
    if (group_fd_ < 0) group_fd_ = fd;  // first success leads the group
    events_.push_back(e);
  }

  if (events_.empty()) {
    reason_ = std::string("perf_event_open failed: ") +
              std::strerror(first_errno) + " (perf_event_paranoid=" +
              std::to_string(ParanoidLevel()) + ")";
    return;
  }
  available_ = true;
}

PerfCounters::~PerfCounters() {
  for (Event& e : events_) {
    if (e.fd >= 0) close(e.fd);
  }
}

void PerfCounters::Start() {
  if (!available_) return;
  ioctl(group_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(group_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

void PerfCounters::Stop() {
  // Reset values but keep slot wiring: slots point into values_.
  values_.scaled = false;
  values_.running_fraction = 1.0;
  values_.time_enabled_ns = 0;
  for (Event& e : events_) *e.slot = std::nullopt;
  if (!available_) return;

  ioctl(group_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);

  // PERF_FORMAT_GROUP layout:
  //   u64 nr; u64 time_enabled; u64 time_running; { u64 value; u64 id; }[nr]
  const size_t max_words = 3 + 2 * events_.size();
  std::vector<uint64_t> buf(max_words, 0);
  ssize_t n = read(group_fd_, buf.data(), buf.size() * sizeof(uint64_t));
  if (n < ssize_t(3 * sizeof(uint64_t))) {
    HJ_LOG(Warning) << "perf counter group read failed: "
                    << std::strerror(errno);
    return;
  }
  uint64_t nr = buf[0];
  uint64_t enabled = buf[1];
  uint64_t running = buf[2];
  values_.time_enabled_ns = enabled;
  double scale = 1.0;
  if (running > 0 && running < enabled) {
    values_.scaled = true;
    values_.running_fraction = double(running) / double(enabled);
    scale = double(enabled) / double(running);
  } else if (running == 0 && enabled > 0) {
    // Group never got scheduled on a PMU; report absence, not zeros.
    return;
  }
  for (uint64_t i = 0; i < nr && 3 + 2 * i + 1 < buf.size(); ++i) {
    uint64_t value = buf[3 + 2 * i];
    uint64_t id = buf[3 + 2 * i + 1];
    for (Event& e : events_) {
      if (e.id == id) {
        *e.slot = uint64_t(double(value) * scale);
        break;
      }
    }
  }
}

#else  // !__linux__

PerfCounters::PerfCounters() {
  reason_ = ForcedOff() ? "disabled by HJ_PERF_DISABLE"
                        : "perf_event_open is linux-only";
}

PerfCounters::~PerfCounters() = default;

void PerfCounters::Start() {}

void PerfCounters::Stop() {
  for (Event& e : events_) *e.slot = std::nullopt;
}

#endif  // __linux__

std::vector<std::string> PerfCounters::ActiveCounterNames() const {
  std::vector<std::string> names;
  names.reserve(events_.size());
  for (const Event& e : events_) names.emplace_back(e.name);
  return names;
}

}  // namespace perf
}  // namespace hashjoin
