#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

constexpr const char* kLayerNames[] = {
    "join.partition", "hash.table_alloc", "join.build",
    "join.probe",     "storage.free",     "cache.acquire",
    "cache.offer",    "sched.queue_wait", "sched.grant_wait",
    "storage.open",   "storage.store",    "join.disk",
    "storage.teardown",
};
static_assert(std::size(kLayerNames) == size_t(Layer::kCount));

// Enough for every span of a run at the benchmark's sizes; spans past the
// cap still count in the per-op totals but are not written to the file.
constexpr size_t kMaxLoggedSpans = 1 << 20;

const Clock::time_point kOrigin = Clock::now();

int64_t SinceOrigin(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kOrigin)
      .count();
}

struct LoggedSpan {
  const char* name;
  uint64_t op;
  uint32_t tid;
  int64_t start_ns;
  int64_t dur_ns;
};

struct SpanLog {
  std::mutex mu;
  bool enabled = false;
  std::vector<LoggedSpan> spans;
};

SpanLog& Log() {
  static SpanLog log;
  return log;
}

uint32_t ThreadTag() {
  return uint32_t(std::hash<std::thread::id>()(std::this_thread::get_id()) %
                  100000);
}

void ThreadUsage(int64_t* minflt, int64_t* sys_ns) {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  *minflt = ru.ru_minflt;
  *sys_ns = int64_t(ru.ru_stime.tv_sec) * 1000000000 +
            int64_t(ru.ru_stime.tv_usec) * 1000;
}

}  // namespace

const char* LayerName(Layer layer) { return kLayerNames[size_t(layer)]; }

double OpRecord::SpanSumMs() const {
  double sum = 0;
  for (double ms : layer_ms) sum += ms;
  return sum;
}

OpTrace::~OpTrace() {
  SpanLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mu);
  if (!log.enabled || log.spans.size() + events_.size() + 1 > kMaxLoggedSpans) {
    return;
  }
  const uint32_t tid = ThreadTag();
  const int64_t op_start = SinceOrigin(start_);
  log.spans.push_back(
      {"op", op_id_, tid, op_start, SinceOrigin(Clock::now()) - op_start});
  for (const Event& e : events_) {
    log.spans.push_back({LayerName(e.layer), op_id_, tid, e.start_ns,
                         e.dur_ns});
  }
}

void OpTrace::AddInterval(Layer layer, Clock::time_point start,
                          Clock::time_point end) {
  const double ms = Ms(start, end);
  record_->layer_ms[size_t(layer)] += ms;
  events_.push_back({layer, SinceOrigin(start),
                     SinceOrigin(end) - SinceOrigin(start)});
}

Span::Span(OpTrace* trace, Layer layer) : trace_(trace), layer_(layer) {
  if (trace_ == nullptr) return;
  ThreadUsage(&minflt_, &sys_ns_);
  start_ = Clock::now();
}

Span::~Span() {
  if (trace_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  int64_t minflt = 0;
  int64_t sys_ns = 0;
  ThreadUsage(&minflt, &sys_ns);
  OpRecord* rec = trace_->record_;
  const double ms = Ms(start_, end);
  rec->layer_ms[size_t(layer_)] += ms;
  rec->span_wall_ms += ms;
  rec->minor_faults += minflt - minflt_;
  rec->sys_ms += double(sys_ns - sys_ns_) * 1e-6;
  trace_->events_.push_back(
      {layer_, SinceOrigin(start_), SinceOrigin(end) - SinceOrigin(start_)});
}

void EnableSpanLog() {
  SpanLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mu);
  log.enabled = true;
}

hashjoin::Status WriteTraceFile(const std::string& path) {
  using hashjoin::JsonValue;
  SpanLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mu);
  JsonValue events = JsonValue::Array();
  for (const LoggedSpan& s : log.spans) {
    JsonValue e = JsonValue::Object();
    e.Set("name", s.name);
    e.Set("cat", std::string(s.name) == "op" ? "op" : "layer");
    e.Set("ph", "X");
    e.Set("ts", double(s.start_ns) * 1e-3);
    e.Set("dur", double(s.dur_ns) * 1e-3);
    e.Set("pid", 1);
    e.Set("tid", s.tid);
    JsonValue args = JsonValue::Object();
    args.Set("op", s.op);
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  return hashjoin::WriteJsonFile(path, doc);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

namespace {

size_t RankIndex(size_t n, uint64_t per_mille) {
  const uint64_t rank = (per_mille * n + 999) / 1000;
  return rank == 0 ? 0 : size_t(rank - 1);
}

}  // namespace

uint64_t SamplesBeyond(size_t n, uint64_t per_mille) {
  return n == 0 ? 0 : n - RankIndex(n, per_mille) - 1;
}

uint64_t TailPerMille(size_t n) {
  for (uint64_t per_mille : {990, 900}) {
    if (SamplesBeyond(n, per_mille) >= 10) return per_mille;
  }
  return 500;
}

double NearestRank(std::vector<double> v, uint64_t per_mille) {
  if (v.empty()) return 0;
  const size_t idx = RankIndex(v.size(), per_mille);
  std::nth_element(v.begin(), v.begin() + ptrdiff_t(idx), v.end());
  return v[idx];
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace perfbench
