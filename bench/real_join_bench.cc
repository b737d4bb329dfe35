// Real-hardware microbenchmarks (google-benchmark) of the join phase:
// GRACE baseline vs simple vs group vs software-pipelined prefetching
// with actual PREFETCH instructions, plus the §7.1 hash-code
// memoization ablation and the output-tail-prefetch ablation. This is
// the "repro=5, intrinsics readily available" path: absolute numbers
// depend on the host, but group/software-pipelined prefetching should
// beat the baseline by a clear margin whenever the hash table exceeds
// the last-level cache.
//
// The full-join benchmarks take repo flags on top of the
// google-benchmark ones: --threads=N runs BM_GraceJoin on the
// morsel-parallel executor with N workers (always alongside the
// 1-thread reference, so one invocation shows the speedup). Wall-clock
// scaling needs as many online cores, but output counts are verified
// at every thread count either way.
//
// --fault-rate=R / --fault-seed=S drive the disk-backed join benchmarks:
// BM_DiskGraceJoin/raw (no checksums), /clean (checksums, no faults) and
// — when R > 0 — /faults (seeded transient errors + torn pages, with
// write verification). raw vs clean is the checksum overhead; clean vs
// faults is the retry/recovery overhead at that fault rate.

// --json[=path] switches to the machine-readable harness: warm-up +
// repeated trials per configuration, hardware counters when available
// (see src/perf/), one BENCH_real_join.json record per configuration.
// --smoke shrinks the workload to ctest size; --tune=off|static|online
// picks how G and D are chosen (bench::ResolveTuning): off uses the
// paper defaults, static calibrates T/Tnext/max_outstanding on this
// host and applies Theorems 1+2 with the LFB clamp, and online
// additionally runs the per-batch PrefetchTuner feedback loop and
// records its trajectory.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "join/grace.h"
#include "join/grace_disk.h"
#include "mem/memory_model.h"
#include "model/cost_model.h"
#include "perf/bench_reporter.h"
#include "perf/calibrate.h"
#include "simcache/sim_config.h"
#include "storage/buffer_manager.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

// Workload shared across benchmark runs (generation is expensive).
const JoinWorkload& SharedWorkload(uint32_t tuple_size) {
  static std::map<uint32_t, JoinWorkload>* cache =
      new std::map<uint32_t, JoinWorkload>();
  auto it = cache->find(tuple_size);
  if (it == cache->end()) {
    WorkloadSpec spec;
    spec.tuple_size = tuple_size;
    // ~48MB working set (build + table): far beyond LLC.
    spec.num_build_tuples =
        (48ull << 20) / (tuple_size + sizeof(BucketHeader) +
                         sizeof(HashCell));
    spec.matches_per_build = 2.0;
    it = cache->emplace(tuple_size, GenerateJoinWorkload(spec)).first;
  }
  return it->second;
}

void RunJoin(benchmark::State& state, Scheme scheme,
             const KernelParams& params, uint32_t tuple_size) {
  const JoinWorkload& w = SharedWorkload(tuple_size);
  RealMemory mm;
  for (auto _ : state) {
    HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
    BuildPartition(mm, scheme, w.build, &ht, params);
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
    uint64_t n = ProbePartition(mm, scheme, w.probe, ht, tuple_size,
                                params, &out);
    if (n != w.expected_matches) state.SkipWithError("bad join result");
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(w.probe.num_tuples()));
}

void BM_Join_Baseline(benchmark::State& state) {
  RunJoin(state, Scheme::kBaseline, KernelParams{},
          uint32_t(state.range(0)));
}
void BM_Join_Simple(benchmark::State& state) {
  RunJoin(state, Scheme::kSimple, KernelParams{},
          uint32_t(state.range(0)));
}
void BM_Join_Group(benchmark::State& state) {
  KernelParams p;
  p.group_size = uint32_t(state.range(1));
  RunJoin(state, Scheme::kGroup, p, uint32_t(state.range(0)));
}
void BM_Join_Swp(benchmark::State& state) {
  KernelParams p;
  p.prefetch_distance = uint32_t(state.range(1));
  RunJoin(state, Scheme::kSwp, p, uint32_t(state.range(0)));
}
#if HASHJOIN_HAS_COROUTINES
void BM_Join_Coro(benchmark::State& state) {
  KernelParams p;
  p.group_size = uint32_t(state.range(1));  // interleave width W
  RunJoin(state, Scheme::kCoro, p, uint32_t(state.range(0)));
}
#endif

// Ablations at the pivot point (100B tuples, the paper-default G).
void BM_Join_Group_NoMemoizedHash(benchmark::State& state) {
  KernelParams p = bench::PaperJoinDefaults();
  p.hash_mode = HashCodeMode::kCompute;
  RunJoin(state, Scheme::kGroup, p, 100);
}
void BM_Join_Group_NoOutputPrefetch(benchmark::State& state) {
  KernelParams p = bench::PaperJoinDefaults();
  p.prefetch_output = false;
  RunJoin(state, Scheme::kGroup, p, 100);
}

BENCHMARK(BM_Join_Baseline)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_Simple)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_Group)
    ->Args({100, 4})
    ->Args({100, 8})
    ->Args({100, 16})
    ->Args({100, 19})
    ->Args({100, 32})
    ->Args({100, 64})
    ->Args({20, 19})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_Swp)
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 4})
    ->Args({100, 8})
    ->Args({20, 4})
    ->Unit(benchmark::kMillisecond);
#if HASHJOIN_HAS_COROUTINES
BENCHMARK(BM_Join_Coro)
    ->Args({100, 8})
    ->Args({100, 19})
    ->Args({100, 32})
    ->Args({20, 19})
    ->Unit(benchmark::kMillisecond);
#endif
BENCHMARK(BM_Join_Group_NoMemoizedHash)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Join_Group_NoOutputPrefetch)->Unit(benchmark::kMillisecond);

}  // namespace

// Full GRACE join (partition phase + join phase) on a uniform
// 8-partition workload, run on the morsel-parallel executor. The
// 1-thread run is the paper's serial path; higher thread counts must
// produce the identical output count.
void GraceJoinBench(benchmark::State& state, uint32_t threads) {
  const JoinWorkload& w = SharedWorkload(20);
  GraceConfig config;
  config.forced_num_partitions = 8;
  config.num_threads = threads;
  RealMemory mm;
  for (auto _ : state) {
    JoinResult r = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
    if (r.output_tuples != w.expected_matches) {
      state.SkipWithError("bad join result");
      break;
    }
    benchmark::DoNotOptimize(r.output_tuples);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(w.probe.num_tuples()));
}

// Disk-backed GRACE join through the fault-tolerant I/O path. A modest
// workload (~4MB build) keeps each iteration short; the interesting
// quantity is the *relative* cost of checksums and fault recovery, not
// the absolute time.
void DiskGraceJoinBench(benchmark::State& state, bool checksums,
                        double fault_rate, uint64_t fault_seed) {
  static const JoinWorkload& w = *new JoinWorkload([] {
    WorkloadSpec spec;
    spec.tuple_size = 100;
    spec.num_build_tuples = 40000;
    spec.matches_per_build = 2.0;
    return GenerateJoinWorkload(spec);
  }());
  uint64_t injected = 0, retries = 0, verify_fixes = 0;
  for (auto _ : state) {
    BufferManagerConfig cfg;
    cfg.num_disks = 4;
    cfg.disk.bandwidth_mb_per_s = 20000;
    cfg.disk.request_latency_us = 0;
    cfg.checksum_pages = checksums;
    cfg.disk.fault.read_error_rate = fault_rate;
    cfg.disk.fault.write_error_rate = fault_rate;
    cfg.disk.fault.torn_page_rate = fault_rate;
    cfg.disk.fault.seed = fault_seed;
    cfg.verify_writes = fault_rate > 0;  // torn pages need the read-back
    BufferManager bm(cfg);
    DiskJoinConfig jc;
    jc.num_partitions = 8;
    jc.page_checksums = checksums;
    DiskGraceJoin join(&bm, jc);
    auto b = join.StoreRelation(w.build);
    auto p = join.StoreRelation(w.probe);
    if (!b.ok() || !p.ok()) {
      state.SkipWithError("store failed");
      break;
    }
    auto r = join.Join(b.value(), p.value());
    if (!r.ok() || r.value().output_tuples != w.expected_matches) {
      state.SkipWithError("bad disk join result");
      break;
    }
    const IoRecoveryStats& io = r.value().recovery.io;
    injected += io.injected_faults;
    retries += io.read_retries + io.write_retries;
    verify_fixes += io.write_verify_failures;
    benchmark::DoNotOptimize(r.value().output_tuples);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(w.probe.num_tuples()));
  state.counters["injected_faults"] = double(injected);
  state.counters["retries"] = double(retries);
  state.counters["verify_fixes"] = double(verify_fixes);
}

// ---------------------------------------------------------------------------
// Machine-readable harness (--json): BenchReporter trials with hardware
// counters, one record per (scheme, G, D, threads) configuration.

namespace {

using bench::ProbeCodeCosts;  // shared Table-2 cost vector

JoinWorkload MakeWorkload(uint32_t tuple_size, uint64_t working_set_bytes) {
  WorkloadSpec spec;
  spec.tuple_size = tuple_size;
  spec.num_build_tuples =
      working_set_bytes /
      (tuple_size + sizeof(BucketHeader) + sizeof(HashCell));
  spec.matches_per_build = 2.0;
  return GenerateJoinWorkload(spec);
}

// --tune=online: probe the (pre-built) hash table batch by batch while a
// tune::PrefetchTuner ramps G/D from live per-batch counters, published
// to the kernels through KernelParams::live at batch boundaries. One
// record per depth-sensitive scheme, with the full tuner trajectory, so
// fig12_param_sweep --real can compare online convergence against the
// offline-best depth.
void RunOnlineJoinSection(perf::BenchReporter* reporter,
                          const FlagParser& flags,
                          const bench::TuningResolution& tuning,
                          const JoinWorkload& w, uint32_t tuple_size,
                          uint64_t working_set, bool smoke) {
  RealMemory mm;
  // Pre-split the probe input into batch slices (setup, untimed): batch
  // boundaries are where counters are read and new depths adopted.
  const size_t pages = w.probe.num_pages();
  const size_t num_batches = std::min<size_t>(smoke ? 12 : 48, pages);
  std::vector<Relation> batches;
  batches.reserve(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    batches.push_back(w.probe.CopyPages(b * pages / num_batches,
                                        (b + 1) * pages / num_batches));
  }

  for (Scheme scheme : bench::SchemesFromFlag(flags)) {
    if (scheme == Scheme::kBaseline || scheme == Scheme::kSimple) {
      continue;  // no depth to tune
    }
    KernelParams params = tuning.params;
    LiveTuning live;
    params.live = &live;
    tune::TunerConfig tcfg =
        bench::TunerConfigFromResolution(tuning, ProbeCodeCosts());
    if (scheme == Scheme::kCoro) {
      // An AMAC-style interleave width is not LFB-bound: each chain
      // holds at most one outstanding prefetch and issue is spread over
      // resumes, so widths past the measured ceiling still pay (the
      // --real sweep places W* above it on this host). Feedback and
      // max_depth alone bound the coro ramp.
      tcfg.max_outstanding = 0;
    }
    tune::PrefetchTuner tuner(tcfg);
    live.Publish(tuner.group_size(), tuner.prefetch_distance());
    const uint32_t initial_g = tuner.group_size();
    const uint32_t initial_d = tuner.prefetch_distance();

    HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
    BuildPartition(mm, scheme, w.build, &ht, params);
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));

    perf::PerfCounters counters;
    const bool have_pmu = counters.available();
    const double ghz =
        tuning.calibration.cpu_ghz > 0 ? tuning.calibration.cpu_ghz : 3.0;

    uint64_t outputs = 0;
    double total_cycles = 0;
    uint64_t total_tuples = 0;
    WallTimer total;
    for (const Relation& slice : batches) {
      WallTimer batch_timer;
      if (have_pmu) counters.Start();
      outputs += ProbePartition(mm, scheme, slice, ht, tuple_size, params,
                                &out);
      if (have_pmu) counters.Stop();
      tune::BatchReading reading;
      reading.tuples = slice.num_tuples();
      reading.cycles = double(batch_timer.ElapsedNanos()) * ghz;
      if (have_pmu && counters.values().cycles.has_value()) {
        reading.cycles = double(*counters.values().cycles);
      }
      if (have_pmu && counters.values().l1d_misses.has_value()) {
        reading.l1d_misses = double(*counters.values().l1d_misses);
      }
      if (have_pmu && counters.values().stalled_cycles.has_value()) {
        reading.stalled_cycles = double(*counters.values().stalled_cycles);
      }
      total_cycles += reading.cycles;
      total_tuples += reading.tuples;
      if (tuner.OnBatch(reading)) {
        live.Publish(tuner.group_size(), tuner.prefetch_distance());
      }
      // Reset the output between batches (outside the timed window):
      // letting ~400MB of matches accumulate makes late batches
      // allocation- and TLB-bound regardless of depth, and the tuner
      // would chase that drift instead of the depth response. A real
      // operator pipeline hands output pages downstream anyway.
      out.Clear();
    }
    const double wall = total.ElapsedSeconds();
    const bool ok = outputs == w.expected_matches;

    // Converged cost: the best batch cost seen at the final depth (the
    // quantity the offline sweep's per-depth best compares against).
    double converged_cost = -1;
    for (const tune::TunerSample& s : tuner.trajectory()) {
      if (s.depth != tuner.depth()) continue;
      if (converged_cost < 0 || s.cycles_per_tuple < converged_cost) {
        converged_cost = s.cycles_per_tuple;
      }
    }

    JsonValue config = JsonValue::Object();
    config.Set("phase", "online");
    config.Set("scheme", SchemeName(scheme));
    config.Set("G", tuning.params.group_size);  // static reference choice
    config.Set("D", tuning.params.prefetch_distance);
    config.Set("threads", 1);
    config.Set("tuple_size", tuple_size);
    config.Set("build_tuples", w.build.num_tuples());
    config.Set("probe_tuples", w.probe.num_tuples());
    config.Set("working_set_bytes", working_set);
    config.Set("batches", uint64_t(num_batches));
    JsonValue& rec = reporter->AddMeasuredRecord(
        std::string("online/") + SchemeName(scheme), std::move(config), wall,
        "per-batch counter windows feed the online tuner");
    rec.Set("outputs", outputs);
    rec.Set("verified", ok);
    rec.Set("tuning", tuning.ToJson());
    JsonValue tj = JsonValue::Object();
    tj.Set("initial_G", initial_g);
    tj.Set("initial_D", initial_d);
    tj.Set("final_G", tuner.group_size());
    tj.Set("final_D", tuner.prefetch_distance());
    tj.Set("converged", tuner.converged());
    tj.Set("batches_seen", uint64_t(tuner.batches()));
    tj.Set("depth_cap", tcfg.max_outstanding > 0
                            ? std::min(tcfg.max_depth, tcfg.max_outstanding)
                            : tcfg.max_depth);
    tj.Set("cycles_per_tuple",
           total_tuples > 0 ? total_cycles / double(total_tuples) : 0.0);
    tj.Set("converged_cycles_per_tuple", converged_cost);
    bench::kTrajectoryBlock.Set(&tj, tuner.trajectory());
    rec.Set("tuner", std::move(tj));
  }
}

int RunJsonHarness(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const uint32_t tuple_size =
      uint32_t(flags.GetInt("tuple-size", smoke ? 20 : 100));
  const uint64_t working_set =
      smoke ? (2ull << 20) : (48ull << 20);
  const uint32_t threads =
      uint32_t(flags.GetInt("threads", smoke ? 2 : 1));

  perf::BenchReporter::Options opt;
  opt.bench_name = "real_join";
  std::string path = flags.GetString("json", "");
  if (!path.empty() && path != "true") opt.output_path = path;
  opt.trials = int(flags.GetInt("trials", smoke ? 2 : 5));
  opt.warmup = int(flags.GetInt("warmup", 1));
  perf::BenchReporter reporter(std::move(opt));

  // One shared tuning resolution for every scheme — no per-scheme
  // special cases: the coroutine interleave width is the same Theorem-1
  // group size GP uses, so a single resolver serves all of them.
  const bench::TuningResolution tuning = bench::ResolveTuning(
      flags, ProbeCodeCosts(), bench::PaperJoinDefaults());
  const KernelParams tuned = tuning.params;
  if (tuning.calibrated) reporter.SetCalibration(tuning.calibration);

  const JoinWorkload w = MakeWorkload(tuple_size, working_set);
  RealMemory mm;

  // --- join phase (build + probe), every scheme in --scheme (default:
  // all compiled in) ---
  for (Scheme scheme : bench::SchemesFromFlag(flags)) {
    KernelParams params = tuned;
    std::unique_ptr<HashTable> ht;
    std::unique_ptr<Relation> out;
    uint64_t outputs = 0;
    bool ok = true;
    JsonValue config = JsonValue::Object();
    config.Set("phase", "join");
    config.Set("scheme", SchemeName(scheme));
    config.Set("G", params.group_size);
    config.Set("D", params.prefetch_distance);
    config.Set("threads", 1);
    config.Set("tuple_size", tuple_size);
    config.Set("build_tuples", w.build.num_tuples());
    config.Set("probe_tuples", w.probe.num_tuples());
    config.Set("working_set_bytes", working_set);
    JsonValue& rec = reporter.AddRecord(
        std::string("join/") + SchemeName(scheme), std::move(config),
        /*body=*/
        [&] {
          BuildPartition(mm, scheme, w.build, ht.get(), params);
          outputs = ProbePartition(mm, scheme, w.probe, *ht, tuple_size,
                                   params, out.get());
          ok &= outputs == w.expected_matches;
        },
        /*setup=*/
        [&] {
          ht = std::make_unique<HashTable>(
              ChooseBucketCount(w.build.num_tuples(), 31));
          out = std::make_unique<Relation>(
              ConcatSchema(w.build.schema(), w.probe.schema()));
        });
    rec.Set("outputs", outputs);
    rec.Set("verified", ok);
    rec.Set("tuning", tuning.ToJson());
  }

  // --- online tuning: per-batch feedback loop (--tune=online) ---
  if (tuning.mode == bench::TuneMode::kOnline) {
    RunOnlineJoinSection(&reporter, flags, tuning, w, tuple_size,
                         working_set, smoke);
  }

  // --- full GRACE join on the morsel executor, 1..N threads ---
  std::set<uint32_t> counts = {1u, std::max(1u, threads)};
  for (uint32_t t : counts) {
    GraceConfig config;
    config.forced_num_partitions = 8;
    config.num_threads = t;
    config.join_params = tuned;
    JoinResult result;
    bool ok = true;
    JsonValue cfg = JsonValue::Object();
    cfg.Set("phase", "grace_full");
    cfg.Set("scheme", SchemeName(config.join_scheme));
    cfg.Set("G", tuned.group_size);
    cfg.Set("D", tuned.prefetch_distance);
    cfg.Set("threads", t);
    cfg.Set("tuple_size", tuple_size);
    cfg.Set("build_tuples", w.build.num_tuples());
    cfg.Set("probe_tuples", w.probe.num_tuples());
    JsonValue& rec = reporter.AddRecord(
        "grace_full/threads=" + std::to_string(t), std::move(cfg), [&] {
          result = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
          ok &= result.output_tuples == w.expected_matches;
        });
    rec.Set("outputs", result.output_tuples);
    rec.Set("verified", ok);
    JsonValue phases = JsonValue::Object();
    phases.Set("partition_wall_seconds",
               result.partition_phase.wall_seconds);
    phases.Set("join_wall_seconds", result.join_phase.wall_seconds);
    rec.Set("phases", std::move(phases));
    // Real-memory runs have no sim breakdowns; per-thread stats appear
    // here when the executor ran against the simulator (skew_bench).
    rec.Set("per_thread_sim_threads",
            uint64_t(result.per_thread_join_sim.size()));
    rec.Set("tuning", tuning.ToJson());
  }

  // --- disk-backed join through the fault-tolerant I/O path ---
  {
    const double fault_rate = flags.GetDouble("fault-rate", 0.0);
    const uint64_t fault_seed =
        uint64_t(flags.GetInt("fault-seed", 0x5EED));
    const JoinWorkload dw =
        MakeWorkload(100, smoke ? (1ull << 20) : (8ull << 20));
    struct DiskCase {
      const char* name;
      bool checksums;
      double rate;
    };
    std::vector<DiskCase> cases = {{"raw", false, 0.0},
                                   {"clean", true, 0.0}};
    if (fault_rate > 0) cases.push_back({"faults", true, fault_rate});
    for (const DiskCase& dc : cases) {
      DiskJoinRecovery recovery;
      uint64_t outputs = 0;
      bool ok = true;
      JsonValue cfg = JsonValue::Object();
      cfg.Set("phase", "disk_grace");
      cfg.Set("scheme", SchemeName(DiskJoinConfig{}.join_scheme));
      cfg.Set("checksums", dc.checksums);
      cfg.Set("fault_rate", dc.rate);
      cfg.Set("fault_seed", fault_seed);
      cfg.Set("tuple_size", 100);
      cfg.Set("build_tuples", dw.build.num_tuples());
      JsonValue& rec = reporter.AddRecord(
          std::string("disk_grace/") + dc.name, std::move(cfg), [&] {
            BufferManagerConfig bmc;
            bmc.num_disks = 4;
            bmc.disk.bandwidth_mb_per_s = 20000;
            bmc.disk.request_latency_us = 0;
            bmc.checksum_pages = dc.checksums;
            bmc.disk.fault.read_error_rate = dc.rate;
            bmc.disk.fault.write_error_rate = dc.rate;
            bmc.disk.fault.torn_page_rate = dc.rate;
            bmc.disk.fault.seed = fault_seed;
            bmc.verify_writes = dc.rate > 0;
            BufferManager bm(bmc);
            DiskJoinConfig jc;
            jc.num_partitions = 8;
            jc.page_checksums = dc.checksums;
            DiskGraceJoin join(&bm, jc);
            auto b = join.StoreRelation(dw.build);
            auto p = join.StoreRelation(dw.probe);
            if (!b.ok() || !p.ok()) {
              ok = false;
              return;
            }
            auto r = join.Join(b.value(), p.value());
            if (!r.ok()) {
              ok = false;
              return;
            }
            outputs = r.value().output_tuples;
            ok &= outputs == dw.expected_matches;
            recovery = r.value().recovery;
          });
      rec.Set("outputs", outputs);
      rec.Set("verified", ok);
      bench::kRecoveryBlock.Set(&rec, recovery);
    }
  }

  if (!reporter.WriteAndReport(flags)) return 1;
  return 0;
}

}  // namespace

}  // namespace hashjoin

// Custom main: the repo's flags (--threads, --fault-rate, --fault-seed)
// must come out of argv before google-benchmark sees them
// (ReportUnrecognizedArguments rejects foreign flags).
int main(int argc, char** argv) {
  hashjoin::FlagParser flags;
  flags.Parse(argc, argv);
  if (flags.Has("json")) return hashjoin::RunJsonHarness(flags);
  // Validate --scheme even on the google-benchmark path (where the
  // registered benchmark list, not the flag, picks the kernels): a typo
  // should fail loudly, not silently run everything.
  if (flags.Has("scheme")) {
    (void)hashjoin::bench::SchemesFromFlag(flags);
  }
  uint32_t threads = uint32_t(flags.GetInt("threads", 1));
  double fault_rate = flags.GetDouble("fault-rate", 0.0);
  uint64_t fault_seed = uint64_t(flags.GetInt("fault-seed", 0x5EED));

  const char* repo_flags[] = {"--threads", "--fault-rate", "--fault-seed",
                              "--scheme", "--tune"};
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    bool ours = false;
    for (const char* f : repo_flags) {
      if (a.rfind(f, 0) == 0) {
        if (a == f && i + 1 < argc && argv[i + 1][0] != '-') ++i;
        ours = true;
        break;
      }
    }
    if (!ours) args.push_back(argv[i]);
  }
  int filtered_argc = int(args.size());

  std::set<uint32_t> counts = {1u, std::max(1u, threads)};
  std::vector<std::string> names;  // outlive RunSpecifiedBenchmarks
  for (uint32_t t : counts) {
    names.push_back("BM_GraceJoin/threads:" + std::to_string(t));
    benchmark::RegisterBenchmark(names.back().c_str(),
                                 hashjoin::GraceJoinBench, t)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }

  benchmark::RegisterBenchmark("BM_DiskGraceJoin/raw",
                               hashjoin::DiskGraceJoinBench,
                               /*checksums=*/false, 0.0, fault_seed)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("BM_DiskGraceJoin/clean",
                               hashjoin::DiskGraceJoinBench,
                               /*checksums=*/true, 0.0, fault_seed)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  if (fault_rate > 0) {
    benchmark::RegisterBenchmark("BM_DiskGraceJoin/faults",
                                 hashjoin::DiskGraceJoinBench,
                                 /*checksums=*/true, fault_rate, fault_seed)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }

  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
