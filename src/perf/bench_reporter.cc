#include "perf/bench_reporter.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <type_traits>

#include "util/logging.h"
#include "util/timer.h"

namespace hashjoin {
namespace perf {

namespace {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The trials' reading: each counter's median over the trials that
/// measured it, `scaled` when any trial was, the smallest running
/// fraction. Returns false when no counter was measured at all.
bool MedianOfTrials(const std::vector<CounterValues>& trials,
                    CounterValues* out) {
  bool any_measured = false;
  auto visit = [&](const char*, auto member,
                   fields::Kind = fields::Kind::kCounter) {
    using M = fields::MemberType<decltype(member)>;
    if constexpr (std::is_same_v<M, std::optional<uint64_t>>) {
      std::vector<double> measured;
      for (const CounterValues& t : trials) {
        if ((t.*member).has_value()) measured.push_back(double(*(t.*member)));
      }
      if (!measured.empty()) {
        out->*member = uint64_t(Median(std::move(measured)));
        any_measured = true;
      }
    }
  };
  CounterValues::VisitFields(visit);
  for (const CounterValues& t : trials) {
    out->scaled |= t.scaled;
    out->running_fraction = std::min(out->running_fraction, t.running_fraction);
  }
  return any_measured;
}

JsonValue WallJson(const std::vector<double>& wall) {
  JsonValue obj = JsonValue::Object();
  obj.Set("median", Median(wall));
  obj.Set("min", *std::min_element(wall.begin(), wall.end()));
  double mean = 0;
  for (double s : wall) mean += s;
  obj.Set("mean", mean / double(wall.size()));
  JsonValue all = JsonValue::Array();
  for (double s : wall) all.Append(s);
  obj.Set("all", std::move(all));
  return obj;
}

JsonValue RecordEnvelope(const std::string& name, JsonValue config,
                         int trials, int warmup,
                         const std::vector<double>& wall) {
  JsonValue record = JsonValue::Object();
  record.Set("name", name);
  record.Set("config", std::move(config));
  record.Set("trials", int64_t(trials));
  record.Set("warmup", int64_t(warmup));
  record.Set("wall_seconds", WallJson(wall));
  return record;
}

void SetCountersUnavailable(JsonValue* record, std::string why) {
  record->Set("counters", JsonValue());
  record->Set("counters_unavailable", std::move(why));
}

/// Nearest-rank percentile of `v` (0 when empty); p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = size_t(p * double(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

TailLatency TailLatency::Of(const std::vector<double>& run_seconds,
                            const std::vector<double>& queue_seconds) {
  const std::vector<double>& r = run_seconds;
  const std::vector<double>& q = queue_seconds;
  return {Percentile(r, 0.5), Percentile(r, 0.95), Percentile(r, 0.99),
          Percentile(r, 1.0), Percentile(q, 0.5),  Percentile(q, 0.95),
          Percentile(q, 0.99), Percentile(q, 1.0)};
}

BenchReporter::BenchReporter(Options options)
    : options_(std::move(options)) {
  HJ_CHECK(!options_.bench_name.empty()) << "bench_name is required";
  HJ_CHECK(options_.trials >= 1);
  output_path_ = options_.output_path.empty()
                     ? "BENCH_" + options_.bench_name + ".json"
                     : options_.output_path;
  doc_ = JsonValue::Object();
  doc_.Set("bench", options_.bench_name);
  doc_.Set("schema_version", 1);
  JsonValue host = JsonValue::Object();
  host.Set("nproc", uint64_t(std::thread::hardware_concurrency()));
#if defined(__x86_64__)
  host.Set("arch", "x86_64");
#elif defined(__aarch64__)
  host.Set("arch", "aarch64");
#else
  host.Set("arch", "unknown");
#endif
  host.Set("perf_event_paranoid", int64_t(PerfCounters::ParanoidLevel()));
  bool avail = options_.collect_counters && counters_.available();
  host.Set("counters_available", avail);
  if (!avail) {
    host.Set("counters_unavailable_reason",
             options_.collect_counters ? counters_.unavailable_reason()
                                       : "disabled by caller");
  }
  doc_.Set("host", std::move(host));
  doc_.Set("calibration", JsonValue());
  doc_.Set("records", JsonValue::Array());
}

bool BenchReporter::counters_available() const {
  return options_.collect_counters && counters_.available();
}

void BenchReporter::SetCalibration(const CalibrationResult& calibration) {
  doc_.Set("calibration", calibration.ToJson());
}

JsonValue& BenchReporter::AddRecord(const std::string& name,
                                    JsonValue config,
                                    const std::function<void()>& body,
                                    const std::function<void()>& setup) {
  for (int w = 0; w < options_.warmup; ++w) {
    if (setup) setup();
    body();
  }

  std::vector<double> wall;
  wall.reserve(size_t(options_.trials));
  std::vector<CounterValues> counter_trials;
  const bool use_counters = counters_available();
  for (int t = 0; t < options_.trials; ++t) {
    if (setup) setup();
    WallTimer timer;
    if (use_counters) counters_.Start();
    body();
    if (use_counters) counters_.Stop();
    wall.push_back(timer.ElapsedSeconds());
    if (use_counters) counter_trials.push_back(counters_.values());
  }

  JsonValue record = RecordEnvelope(name, std::move(config), options_.trials,
                                    options_.warmup, wall);
  CounterValues median;
  if (!use_counters) {
    SetCountersUnavailable(&record, options_.collect_counters
                                        ? counters_.unavailable_reason()
                                        : "disabled by caller");
  } else if (!MedianOfTrials(counter_trials, &median)) {
    SetCountersUnavailable(&record, "counter group never scheduled on a PMU");
  } else {
    kCountersBlock.Set(&record, median);
  }
  return Append(std::move(record));
}

JsonValue& BenchReporter::AddMeasuredRecord(const std::string& name,
                                            JsonValue config,
                                            double wall_seconds,
                                            const std::string& why,
                                            int trials) {
  JsonValue record =
      RecordEnvelope(name, std::move(config), trials, 0, {wall_seconds});
  SetCountersUnavailable(&record, why);
  return Append(std::move(record));
}

JsonValue& BenchReporter::Append(JsonValue record) {
  JsonValue* records = doc_.FindMutable("records");
  HJ_CHECK(records != nullptr);
  return records->Append(std::move(record));
}

Status BenchReporter::Write() const { return WriteJsonFile(output_path_, doc_); }

bool BenchReporter::WriteAndReport(const FlagParser& flags) const {
  const std::vector<std::string> unread = flags.Unread();
  for (const std::string& name : unread) {
    std::fprintf(stderr, "%s: unknown flag --%s; %s not written\n",
                 options_.bench_name.c_str(), name.c_str(),
                 output_path_.c_str());
  }
  if (!unread.empty()) return false;
  Status st = Write();
  if (!st.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", output_path_.c_str(),
                 st.ToString().c_str());
    return false;
  }
  std::printf("wrote %s (%zu records, counters %s)\n", output_path_.c_str(),
              doc_.Find("records")->size(),
              counters_available() ? "available" : "unavailable");
  return true;
}

}  // namespace perf
}  // namespace hashjoin
