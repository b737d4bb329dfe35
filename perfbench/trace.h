// Spans, per-operation records and summary statistics of the repository
// benchmark. Spans are taken by the benchmark's own code around calls
// into the library's public API; nothing here reaches inside the library.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json_writer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Layer boundaries the traced pass times; each is one span name.
enum class Layer : uint8_t {
  kPartition,     // join.partition: PartitionWithPlan
  kTableAlloc,    // hash.table_alloc: HashTable constructor
  kBuild,         // join.build: BuildPartition
  kProbe,         // join.probe: ProbePartition, emit included
  kFree,          // storage.free: table, output and partition teardown
  kCacheAcquire,  // cache.acquire: HashTableCache::Acquire
  kCacheOffer,    // cache.offer: HashTableCache::Offer
  kQueueWait,     // sched.queue_wait: Submit to runner pick-up
  kGrantWait,     // sched.grant_wait: runner pick-up to body entry
  kStorageOpen,   // storage.open: BufferManager + DiskGraceJoin set-up
  kStore,         // storage.store: DiskGraceJoin::StoreRelation
  kDiskJoin,      // join.disk: DiskGraceJoin::Join
  kTeardown,      // storage.teardown: DiskGraceJoin + BufferManager dtors
  kCount
};

const char* LayerName(Layer layer);

/// Per-query counters the disk join's public result structs report
/// (DiskJoinResult, IoRecoveryStats).
struct DiskCounters {
  double partition_ms = 0;  // build + probe partition phases
  double join_ms = 0;       // join phase
  double io_wait_ms = 0;    // main_wait_seconds summed over the phases
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t victim_spills = 0;
  uint64_t recursive_splits = 0;
  uint64_t chunked_fallbacks = 0;
};

/// Everything the benchmark records about one operation.
struct OpRecord {
  bool ok = false;
  double latency_ms = 0;
  uint64_t input_tuples = 0;  // build + probe tuples the op joined

  // --- filled by the traced pass only ---
  std::array<double, size_t(Layer::kCount)> layer_ms{};
  int64_t minor_faults = 0;  // getrusage(RUSAGE_THREAD) over the spans
  double sys_ms = 0;         // kernel time over the spans
  double span_wall_ms = 0;   // wall time the rusage deltas cover
  int cache_hit = -1;        // -1: the op consulted no cache
  double join_call_ms = 0;   // the whole join call, for the hit/miss split
  DiskCounters disk;

  double SpanSumMs() const;
};

/// Collects the spans of one operation into its OpRecord and, when the
/// run writes a trace file, into the process-wide span log.
class OpTrace {
 public:
  OpTrace(uint64_t op_id, OpRecord* record)
      : op_id_(op_id), record_(record), start_(Clock::now()) {}
  ~OpTrace();

  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

  /// Adds a span measured elsewhere (scheduler waits derived from
  /// timestamps); no rusage deltas.
  void AddInterval(Layer layer, Clock::time_point start,
                   Clock::time_point end);

 private:
  friend class Span;
  struct Event {
    Layer layer;
    int64_t start_ns;
    int64_t dur_ns;
  };

  uint64_t op_id_;
  OpRecord* record_;
  Clock::time_point start_;
  std::vector<Event> events_;
};

/// RAII span around one public call: wall time plus the calling thread's
/// minor-fault and kernel-time deltas. A null trace makes it a no-op, so
/// one code path serves both passes where that is convenient.
class Span {
 public:
  Span(OpTrace* trace, Layer layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  OpTrace* trace_;
  Layer layer_;
  Clock::time_point start_;
  int64_t minflt_ = 0;
  int64_t sys_ns_ = 0;
};

/// Writes every recorded span as Chrome trace-event JSON (chrome://tracing
/// and Perfetto open it). Spans of one operation share its "op" id.
hashjoin::Status WriteTraceFile(const std::string& path);

/// Turns span logging into the trace file on (off by default: the
/// untraced pass must not pay for it, and smoke runs need no file).
void EnableSpanLog();

// --- statistics ---

/// Linear-interpolated median (0 for no samples).
double Median(std::vector<double> v);

/// The tail percentile, in per mille, for `n` samples: the highest of
/// {990, 900, 500} with at least ten samples beyond it by nearest rank,
/// falling back to the median. A decade ladder keeps each workload on
/// one rung while its operation count drifts.
uint64_t TailPerMille(size_t n);

/// Samples beyond the nearest-rank `per_mille` percentile of `n`.
uint64_t SamplesBeyond(size_t n, uint64_t per_mille);

/// The nearest-rank `per_mille` percentile (0 for no samples).
double NearestRank(std::vector<double> v, uint64_t per_mille);

/// Elapsed milliseconds between two time points.
double Ms(Clock::time_point a, Clock::time_point b);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
