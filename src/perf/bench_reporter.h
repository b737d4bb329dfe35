#ifndef HASHJOIN_PERF_BENCH_REPORTER_H_
#define HASHJOIN_PERF_BENCH_REPORTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perf/calibrate.h"
#include "perf/perf_counters.h"
#include "util/fields.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/status.h"

namespace hashjoin {
namespace perf {

/// A named record block written from stats structs' field lists: one
/// object holding every key of each struct in `S...`. Benches set
/// blocks only through these descriptors, and `bench_diff --check`
/// walks the same descriptors (bench/bench_blocks.h), so a block and its
/// check are one declaration.
template <class... S>
struct Block {
  const char* key;

  void Set(JsonValue* record, const S&... values) const {
    JsonValue obj = JsonValue::Object();
    (fields::AppendJson(values, &obj), ...);
    record->Set(key, std::move(obj));
  }
};

/// A record block holding one object per element.
template <class S>
struct ArrayBlock {
  const char* key;

  void Set(JsonValue* record, const std::vector<S>& values) const {
    record->Set(key, fields::ToJsonArray(values));
  }
};

/// Run and queue latency tails of a service run (nearest-rank).
struct TailLatency {
  double run_p50 = 0;
  double run_p95 = 0;
  double run_p99 = 0;
  double run_max = 0;
  double queue_p50 = 0;
  double queue_p95 = 0;
  double queue_p99 = 0;
  double queue_max = 0;

  static TailLatency Of(const std::vector<double>& run_seconds,
                        const std::vector<double>& queue_seconds);

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("run_p50", &TailLatency::run_p50);
    v("run_p95", &TailLatency::run_p95);
    v("run_p99", &TailLatency::run_p99);
    v("run_max", &TailLatency::run_max);
    v("queue_p50", &TailLatency::queue_p50);
    v("queue_p95", &TailLatency::queue_p95);
    v("queue_p99", &TailLatency::queue_p99);
    v("queue_max", &TailLatency::queue_max);
  }
};

/// The blocks the reporter itself writes.
inline constexpr Block<CounterValues> kCountersBlock{"counters"};
inline constexpr Block<TailLatency> kTailLatencyBlock{"tail_latency"};

/// Runs warm-up + repeated trials of a measured region and accumulates
/// one machine-readable JSON record per configuration, written as
/// `BENCH_<bench>.json`. All benches — real-hardware and simulator —
/// share the schema, so tools/bench_diff can compare any two runs:
///
///   {
///     "bench": "real_join",
///     "schema_version": 1,
///     "host": { "nproc": ..., "perf_event_paranoid": ...,
///               "counters_available": bool, ... },
///     "calibration": { ... } | null,      // --tune=static|online only
///     "records": [ {
///        "name": "probe/group",           // unique per record
///        "config": { "scheme": ..., "G": ..., "D": ..., ... },
///        "trials": N,
///        "warmup": W,
///        "wall_seconds": { "median": s, "min": s, "mean": s,
///                          "all": [ ... ] },
///        "counters": { CounterValues' fields } | null,
///        "counters_unavailable": "reason"  // only when counters==null
///        ... bench-specific extras: outputs, and blocks written from
///            stats structs' field lists ("sim", "recovery", "cache",
///            "tail_latency", ...; see Block and bench/bench_blocks.h)
///     } ]
///   }
///
/// Counter readings are per-trial; the reported value of each counter is
/// the median across trials (robust to one preempted trial), `scaled` is
/// set when any trial was scaled and `running_fraction` is the smallest.
/// Counters that never opened are null inside "counters"; if no counter
/// opened at all, "counters" itself is null and "counters_unavailable"
/// explains why — consumers must treat the two cases differently from
/// zero.
class BenchReporter {
 public:
  struct Options {
    std::string bench_name;
    std::string output_path;  // default: BENCH_<bench_name>.json
    int warmup = 1;
    int trials = 5;
    bool collect_counters = true;
  };

  explicit BenchReporter(Options options);

  /// Whether hardware counters are live for this reporter.
  bool counters_available() const;

  /// Attaches the machine-calibration block (--tune=static|online runs).
  void SetCalibration(const CalibrationResult& calibration);

  /// Measures one configuration: `setup` (optional, untimed) runs before
  /// every warm-up and trial; `body` is the timed+counted region. The
  /// returned reference points at the record just appended — callers add
  /// bench-specific fields (outputs, sim stats) to it. `config` becomes
  /// the record's "config" member.
  JsonValue& AddRecord(const std::string& name, JsonValue config,
                       const std::function<void()>& body,
                       const std::function<void()>& setup = nullptr);

  /// Appends a record measured outside the trial harness (a service
  /// run, a simulated phase, a best-of-N sweep point): the same
  /// envelope with `wall_seconds` as its reading over `trials` trials,
  /// and null counters because of `why`. Callers add their extras to
  /// the returned record.
  JsonValue& AddMeasuredRecord(const std::string& name, JsonValue config,
                               double wall_seconds, const std::string& why,
                               int trials = 1);

  /// The document built so far.
  const JsonValue& doc() const { return doc_; }

  /// Writes the document to options.output_path.
  Status Write() const;

  /// Write(), then says on stdout where the records went (or on stderr
  /// why they did not); returns whether the file was written. A run
  /// given a flag no code path read (`flags.Unread()`, a misspelt or
  /// retired flag) measured some other configuration than the one asked
  /// for: nothing is written, and each such flag is named on stderr.
  bool WriteAndReport(const FlagParser& flags) const;

  /// output path actually in use.
  const std::string& output_path() const { return output_path_; }

 private:
  JsonValue& Append(JsonValue record);

  Options options_;
  std::string output_path_;
  PerfCounters counters_;
  JsonValue doc_;
};

}  // namespace perf
}  // namespace hashjoin

#endif  // HASHJOIN_PERF_BENCH_REPORTER_H_
