// perfbench: runs one benchmark workload in this process and prints every
// metric by name with its unit, then one JSON line with all of them.
//
//   perfbench --workload=service_reuse --seed=1 --seconds=30 [--trace]
//             [--smoke] [--trace_out=FILE]
//
// A run is a workload's fixed number of blocks (Workload::Blocks), which
// share --seconds equally, each on freshly set-up inputs.
// Untraced, every block times closed-loop operations. Traced, untraced and
// traced blocks alternate, so the per-layer spans can be set against
// untraced time (unaccounted_ms, trace_overhead_frac). --smoke runs a
// small fixed number of operations on small inputs instead, so exact
// counters repeat run to run.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "perf/calibrate.h"
#include "util/flags.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hashjoin::JsonValue;

/// A named number the run prints with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

constexpr uint64_t kSmokeOpsPerBlock = 6;

struct HostSample {
  double mem_latency_ns = 0;
  double line_gap_ns = 0;
};

/// The host covariate: DRAM pointer-chase latency and streaming line gap
/// over 64 MB, without the LFB probe. Recorded, never gated on.
HostSample SampleHost() {
  hashjoin::perf::CalibrationOptions opt;
  opt.probe_lfb = false;
  const hashjoin::perf::CalibrationResult r =
      hashjoin::perf::CalibrateMachine(opt);
  return {r.load_latency_ns, r.line_gap_ns};
}

/// Resets the kernel's peak-RSS mark, so the host sample's buffer does not
/// count toward the workload's peak. Returns false where unsupported.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return bool(clear);
}

double PeakRssMiB(bool reset_worked) {
  if (reset_worked) {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

template <typename Fn>
std::vector<double> Collect(const std::vector<OpRecord>& ops, Fn&& fn) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpRecord& r : ops) out.push_back(fn(r));
  return out;
}

double LayerMean(const std::vector<OpRecord>& ops, Layer layer) {
  return Mean(Collect(ops, [&](const OpRecord& r) {
    return r.layer_ms[size_t(layer)];
  }));
}

/// Per-layer metrics of the traced blocks, set against the untraced
/// median latency. Times are per-operation means, so they add up to the
/// mean span sum; queue and grant waits are medians, as the scheduler
/// reports them per query.
std::vector<Metric> LayerMetrics(const std::vector<OpRecord>& traced,
                                 double untraced_p50_ms,
                                 const Workload& workload,
                                 const HostSample& start,
                                 const HostSample& end) {
  std::vector<Metric> m;
  m.push_back({"join.partition_ms", LayerMean(traced, Layer::kPartition),
               "ms"});
  m.push_back({"join.build_ms", LayerMean(traced, Layer::kBuild), "ms"});
  m.push_back({"join.probe_ms", LayerMean(traced, Layer::kProbe), "ms"});
  m.push_back({"hash.table_alloc_ms", LayerMean(traced, Layer::kTableAlloc),
               "ms"});
  m.push_back({"storage.faults", Mean(Collect(traced, [](const OpRecord& r) {
                 return double(r.minor_faults);
               })),
               "count"});
  double sys = 0;
  double wall = 0;
  for (const OpRecord& r : traced) {
    sys += r.sys_ms;
    wall += r.span_wall_ms;
  }
  m.push_back({"storage.sys_frac", wall > 0 ? sys / wall : 0, "frac"});
  m.push_back({"storage.free_ms", LayerMean(traced, Layer::kFree), "ms"});
  m.push_back({"sched.queue_wait_ms",
               Median(Collect(traced,
                              [](const OpRecord& r) {
                                return r.layer_ms[size_t(Layer::kQueueWait)];
                              })),
               "ms"});
  m.push_back({"sched.grant_wait_ms",
               Median(Collect(traced,
                              [](const OpRecord& r) {
                                return r.layer_ms[size_t(Layer::kGrantWait)];
                              })),
               "ms"});
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  for (const OpRecord& r : traced) {
    if (r.cache_hit == 1) hit_ms.push_back(r.join_call_ms);
    if (r.cache_hit == 0) miss_ms.push_back(r.join_call_ms);
  }
  m.push_back({"join.hit_ms", Median(hit_ms), "ms"});
  m.push_back({"join.miss_ms", Median(miss_ms), "ms"});
  m.push_back({"storage.store_ms", LayerMean(traced, Layer::kStore), "ms"});
  auto disk_mean = [&](auto field) {
    return Mean(Collect(traced, [&](const OpRecord& r) {
      return double(r.disk.*field);
    }));
  };
  m.push_back({"storage.io_wait_ms", disk_mean(&DiskCounters::io_wait_ms),
               "ms"});
  m.push_back({"storage.bytes_written",
               disk_mean(&DiskCounters::bytes_written), "B"});
  m.push_back({"storage.bytes_read", disk_mean(&DiskCounters::bytes_read),
               "B"});
  m.push_back({"storage.teardown_ms", LayerMean(traced, Layer::kTeardown),
               "ms"});
  m.push_back({"join.disk_partition_ms",
               disk_mean(&DiskCounters::partition_ms), "ms"});
  m.push_back({"join.disk_join_ms", disk_mean(&DiskCounters::join_ms),
               "ms"});
  m.push_back({"join.victim_spills", disk_mean(&DiskCounters::victim_spills),
               "count"});
  m.push_back({"join.recursive_splits",
               disk_mean(&DiskCounters::recursive_splits), "count"});
  m.push_back({"join.chunked_fallbacks",
               disk_mean(&DiskCounters::chunked_fallbacks), "count"});

  const hashjoin::cache::CacheStats cs = workload.TracedCacheStats();
  const double per_1k = traced.empty() ? 0 : 1000.0 / double(traced.size());
  m.push_back({"cache.lookups", double(cs.lookups), "count"});
  m.push_back({"cache.hit_rate", cs.HitRate(), "frac"});
  m.push_back({"cache.evictions", double(cs.evictions) * per_1k,
               "per_1k_queries"});
  m.push_back({"cache.invalidations", double(cs.invalidations) * per_1k,
               "per_1k_queries"});
  m.push_back({"cache.rejected_inserts", double(cs.rejected_inserts) * per_1k,
               "per_1k_queries"});

  const double span_p50 =
      Median(Collect(traced, [](const OpRecord& r) { return r.SpanSumMs(); }));
  const double traced_p50 =
      Median(Collect(traced, [](const OpRecord& r) { return r.latency_ms; }));
  m.push_back({"unaccounted_ms", untraced_p50_ms - span_p50, "ms"});
  m.push_back({"trace_overhead_frac",
               untraced_p50_ms > 0 ? traced_p50 / untraced_p50_ms - 1 : 0,
               "frac"});
  m.push_back({"perf.mem_latency_ns",
               (start.mem_latency_ns + end.mem_latency_ns) / 2, "ns"});
  m.push_back({"perf.line_gap_ns", (start.line_gap_ns + end.line_gap_ns) / 2,
               "ns"});
  return m;
}

JsonValue MetricsJson(const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::Object();
  for (const Metric& m : metrics) {
    JsonValue v = JsonValue::Object();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    out.Set(m.name, std::move(v));
  }
  return out;
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-24s %16.6f %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Run(const hashjoin::FlagParser& flags) {
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = uint64_t(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 0);
  const bool traced_run = flags.GetBool("trace", false);
  const bool smoke = flags.Has("smoke");
  const std::string trace_out = flags.GetString("trace_out", "");

  std::unique_ptr<Workload> workload = MakeServiceWorkload(name, seed, smoke);
  if (workload == nullptr || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=service_reuse|service_spill "
                 "--seed=N --seconds=S "
                 "[--trace] [--smoke] [--trace_out=FILE]\n");
    return 2;
  }

  const HostSample host_start = SampleHost();
  const bool rss_reset = ResetPeakRss();

  // The run is the workload's fixed number of blocks, each on freshly
  // set-up inputs: set-up is repeated (its median is setup_s, so work
  // moved into set-up shows), and every block gets new allocations, so
  // one unlucky placement of the inputs in memory does not decide a whole
  // run. A traced run alternates untraced and traced blocks over the same
  // inputs.
  if (traced_run && !trace_out.empty()) EnableSpanLog();
  std::vector<double> setups;
  std::vector<OpRecord> untraced;
  std::vector<OpRecord> traced;
  double untraced_s = 0;
  struct Block {
    size_t begin;
    size_t end;
    double seconds;
  };
  std::vector<Block> untraced_blocks;
  JsonValue block_info = JsonValue::Array();
  const int blocks = workload->Blocks();
  for (int b = 0; b < blocks; ++b) {
    const Clock::time_point s0 = Clock::now();
    workload->SetUp();
    setups.push_back(Ms(s0, Clock::now()) / 1e3);

    const bool tr = traced_run && b % 2 == 1;
    std::vector<OpRecord>* ops = tr ? &traced : &untraced;
    const size_t first = ops->size();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        smoke ? Clock::time_point::max()
              : t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds / blocks));
    workload->RunBlock(deadline, smoke ? kSmokeOpsPerBlock : 0, tr, ops);
    const double block_s = Ms(t0, Clock::now()) / 1e3;
    if (!tr) {
      untraced_s += block_s;
      untraced_blocks.push_back({first, ops->size(), block_s});
    }
    std::vector<double> lat;
    for (size_t i = first; i < ops->size(); ++i) {
      lat.push_back((*ops)[i].latency_ms);
    }
    JsonValue bi = JsonValue::Object();
    bi.Set("traced", tr);
    bi.Set("ops", uint64_t(lat.size()));
    bi.Set("seconds", block_s);
    bi.Set("p50_ms", Median(lat));
    block_info.Append(std::move(bi));
  }
  const double peak_rss = PeakRssMiB(rss_reset);
  const HostSample host_end = SampleHost();

  // --- correctness ---
  uint64_t failed = 0;
  for (const OpRecord& r : untraced) failed += r.ok ? 0 : 1;
  for (const OpRecord& r : traced) failed += r.ok ? 0 : 1;
  const uint64_t attempted = untraced.size() + traced.size();
  const std::string problems = workload->InvariantViolation();
  const bool correct = failed == 0 && problems.empty() && attempted > 0;

  // --- end to end, from the untraced blocks ---
  // Throughput and the median are computed per block and the median over
  // blocks is reported, so a block hit by a burst of host interference
  // does not decide the run. The tail needs every sample it can get: it
  // is taken once over the run's pooled untraced latencies. A failed
  // operation counts as missing every latency limit.
  auto latency = [](const OpRecord& r) {
    return r.ok ? r.latency_ms : std::numeric_limits<double>::infinity();
  };
  const uint64_t tail_per_mille = TailPerMille(untraced.size());
  const double tail_ms =
      NearestRank(Collect(untraced, latency), tail_per_mille);
  std::vector<double> block_tuples_s, block_ops_s, block_p50;
  for (const Block& b : untraced_blocks) {
    std::vector<double> lat;
    double ok_ops = 0;
    double ok_tuples = 0;
    for (size_t i = b.begin; i < b.end; ++i) {
      lat.push_back(latency(untraced[i]));
      if (untraced[i].ok) {
        ok_ops += 1;
        ok_tuples += double(untraced[i].input_tuples);
      }
    }
    block_tuples_s.push_back(b.seconds > 0 ? ok_tuples / b.seconds : 0);
    block_ops_s.push_back(b.seconds > 0 ? ok_ops / b.seconds : 0);
    block_p50.push_back(Median(lat));
  }
  const double p50 = Median(block_p50);
  std::vector<Metric> e2e = {
      {"tput_mtuples_s", Median(block_tuples_s) / 1e6, "Mtuple/s"},
      {"tput_qps", Median(block_ops_s), "op/s"},
      {"lat_p50_ms", p50, "ms"},
      {"lat_tail_ms", tail_ms, "ms"},
      {"peak_rss_mib", peak_rss, "MiB"},
      {"setup_s", Median(setups), "s"},
  };
  const double fail_frac =
      attempted == 0 ? 1.0 : double(failed) / double(attempted);

  std::printf("workload %s seed %llu %s%s: %zu untraced ops in %.3f s, "
              "%zu traced ops\n",
              name.c_str(), (unsigned long long)seed,
              traced_run ? "traced" : "untraced", smoke ? " smoke" : "",
              untraced.size(), untraced_s, traced.size());
  PrintMetrics("end_to_end", e2e);
  std::printf("end_to_end %-24s %16.6f frac\n", "fail_frac", fail_frac);
  std::printf("info lat_tail_ms is p%.1f over the run's %zu pooled "
              "untraced samples, %llu of them beyond it\n",
              double(tail_per_mille) / 10.0, untraced.size(),
              (unsigned long long)SamplesBeyond(untraced.size(),
                                                tail_per_mille));
  std::printf("info perf.mem_latency_ns start %.3f end %.3f; "
              "perf.line_gap_ns start %.4f end %.4f\n",
              host_start.mem_latency_ns, host_end.mem_latency_ns,
              host_start.line_gap_ns, host_end.line_gap_ns);

  JsonValue doc = JsonValue::Object();
  doc.Set("workload", name);
  doc.Set("seed", seed);
  doc.Set("trace", traced_run);
  doc.Set("smoke", smoke);
  doc.Set("correct", correct);
  doc.Set("attempted", attempted);
  doc.Set("failed", failed);
  doc.Set("problems", problems);
  doc.Set("end_to_end", MetricsJson(e2e));
  if (traced_run) {
    std::vector<Metric> layer =
        LayerMetrics(traced, p50, *workload, host_start, host_end);
    PrintMetrics("per_layer", layer);
    doc.Set("per_layer", MetricsJson(layer));
  }
  JsonValue info = JsonValue::Object();
  info.Set("fail_frac", fail_frac);
  info.Set("lat_tail_percentile", double(tail_per_mille) / 10.0);
  info.Set("lat_tail_beyond", SamplesBeyond(untraced.size(), tail_per_mille));
  info.Set("lat_samples", uint64_t(untraced.size()));
  info.Set("untraced_seconds", untraced_s);
  info.Set("blocks", std::move(block_info));
  JsonValue setup_runs = JsonValue::Array();
  for (double s : setups) setup_runs.Append(s);
  info.Set("setup_runs_s", std::move(setup_runs));
  info.Set("perf.mem_latency_ns.start", host_start.mem_latency_ns);
  info.Set("perf.mem_latency_ns.end", host_end.mem_latency_ns);
  info.Set("perf.line_gap_ns.start", host_start.line_gap_ns);
  info.Set("perf.line_gap_ns.end", host_end.line_gap_ns);
  doc.Set("info", std::move(info));

  if (!problems.empty()) std::printf("FAILED: %s\n", problems.c_str());
  if (failed != 0) {
    std::printf("FAILED: %llu of %llu operations returned a wrong count or "
                "no result\n",
                (unsigned long long)failed, (unsigned long long)attempted);
  }
  if (traced_run && !trace_out.empty()) {
    hashjoin::Status st = WriteTraceFile(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", trace_out.c_str(),
                   st.ToString().c_str());
    }
  }
  std::printf("%s\n", doc.Dump(0).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  hashjoin::FlagParser flags;
  flags.Parse(argc, argv);
  return perfbench::Run(flags);
}
