// Real-hardware measurement of the join phase: the GRACE baseline vs
// simple vs group vs software-pipelined vs coroutine prefetching with
// actual PREFETCH instructions, plus the §7.1 hash-code memoization and
// output-tail-prefetch ablations of group prefetching. This is the
// "repro=5, intrinsics readily available" path: absolute numbers depend
// on the host, but group/software-pipelined prefetching should beat the
// baseline by a clear margin whenever the hash table exceeds the
// last-level cache.
//
// Every run writes one BenchReporter record per configuration (warm-up +
// repeated trials, hardware counters when available; see src/perf/) to
// BENCH_real_join.json, or to the file --json=PATH names:
//   join/<scheme>                  build + probe, --tuple-size bytes
//                                  (default 100; 20 under --smoke)
//   join/group/hash_compute        group prefetching hashing every key
//                                  instead of reusing memoized codes
//   join/group/no_output_prefetch  group prefetching without the
//                                  output-tail prefetch
//   online/<scheme>                --tune=online only (below)
//   grace_full/threads=N           the full GRACE join on the morsel
//                                  executor at 1 and --threads workers;
//                                  output counts are verified at every
//                                  thread count, wall-clock scaling
//                                  needs as many online cores
//   disk_grace/{raw,clean,faults}  the disk-backed join through the
//                                  fault-tolerant I/O path: no checksums,
//                                  checksums, and (when --fault-rate=R >
//                                  0) seeded transient errors + torn
//                                  pages with write verification
//                                  (--fault-seed=S); raw vs clean is the
//                                  checksum overhead, clean vs faults the
//                                  recovery overhead at that rate
// --smoke shrinks the workload to ctest size; --scheme picks the
// schemes; --tune=off|static|online picks how G and D are chosen
// (bench::ResolveTuning): off uses the paper defaults, static
// calibrates T/Tnext/max_outstanding on this host and applies Theorems
// 1+2 with the LFB clamp, and online additionally runs the per-batch
// PrefetchTuner feedback loop and records its trajectory. G/D sweeps
// are fig12_param_sweep --real.

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
// tune::PrefetchTuner ramps G/D from per-batch counters; each batch's
// probe call takes the depths the tuner chose after the one before. One
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
    params.group_size = tuner.group_size();
    params.prefetch_distance = tuner.prefetch_distance();
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
        params.group_size = tuner.group_size();
        params.prefetch_distance = tuner.prefetch_distance();
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

int Run(const FlagParser& flags) {
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

  // --- join phase (build + probe) ---
  auto add_join_record = [&](const std::string& name, Scheme scheme,
                             const KernelParams& params) {
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
        name, std::move(config),
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
  };
  for (Scheme scheme : bench::SchemesFromFlag(flags)) {
    add_join_record(std::string("join/") + SchemeName(scheme), scheme,
                    tuned);
    if (scheme != Scheme::kGroup) continue;
    // The DESIGN §5 ablations, at the same depths as join/group.
    KernelParams hash_compute = tuned;
    hash_compute.hash_mode = HashCodeMode::kCompute;
    add_join_record("join/group/hash_compute", scheme, hash_compute);
    KernelParams no_output_prefetch = tuned;
    no_output_prefetch.prefetch_output = false;
    add_join_record("join/group/no_output_prefetch", scheme,
                    no_output_prefetch);
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
    const JoinWorkload dw =
        MakeWorkload(100, smoke ? (1ull << 20) : (8ull << 20));
    for (const bench::FaultSweepCase& dc : bench::FaultSweepCases(flags)) {
      DiskJoinRecovery recovery;
      uint64_t outputs = 0;
      bool ok = true;
      JsonValue cfg = JsonValue::Object();
      cfg.Set("phase", "disk_grace");
      // The disk join probes its partitions with group prefetching.
      cfg.Set("scheme", SchemeName(Scheme::kGroup));
      cfg.Set("checksums", dc.checksums);
      cfg.Set("fault_rate", dc.fault_rate);
      cfg.Set("fault_seed", dc.fault_seed);
      cfg.Set("tuple_size", 100);
      cfg.Set("build_tuples", dw.build.num_tuples());
      JsonValue& rec = reporter.AddRecord(
          std::string("disk_grace/") + dc.name, std::move(cfg), [&] {
            BufferManager bm(dc.Disks());
            DiskGraceJoin join(&bm, 8);
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

int main(int argc, char** argv) {
  hashjoin::FlagParser flags;
  flags.Parse(argc, argv);
  return hashjoin::Run(flags);
}
