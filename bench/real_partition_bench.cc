// Real-hardware microbenchmarks (google-benchmark) of the partition
// phase: baseline / simple / group / software-pipelined prefetching at
// small and large partition counts. The crossover mirrors Figure 14:
// with few partitions the output buffers stay cache-resident and simple
// prefetching suffices; with many, inter-tuple prefetching wins.
//
// Repo flags (parsed before google-benchmark sees argv):
// --fault-rate=R / --fault-seed=S drive the disk-backed partition-pass
// benchmarks — BM_DiskPartition/raw (no checksums), /clean (checksums,
// no faults) and, when R > 0, /faults (seeded transient errors + torn
// pages with write verification). raw vs clean isolates the checksum
// cost of the I/O partition pass; clean vs faults the recovery cost.

// --json[=path] switches to the machine-readable harness (see
// src/perf/bench_reporter.h): warm-up + trials per configuration with
// hardware counters when available, written to
// BENCH_real_partition.json. --smoke shrinks the input for ctest;
// --tune=static calibrates T/Tnext plus the LFB ceiling
// and picks G and D via the shared bench::ResolveTuning.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "join/exec_policy.h"
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

const Relation& SharedInput() {
  static Relation* rel =
      new Relation(GenerateSourceRelation(1'000'000, 100, 42));
  return *rel;
}

void RunPartition(benchmark::State& state, Scheme scheme) {
  const Relation& input = SharedInput();
  uint32_t parts = uint32_t(state.range(0));
  KernelParams params;
  params.group_size = uint32_t(state.range(1));
  params.prefetch_distance = uint32_t(state.range(2));
  RealMemory mm;
  for (auto _ : state) {
    std::vector<Relation> dests;
    dests.reserve(parts);
    for (uint32_t p = 0; p < parts; ++p) {
      dests.emplace_back(input.schema());
    }
    {
      PartitionSinkSet sinks(&dests, kDefaultPageSize);
      PartitionRelation(mm, scheme, input, &sinks, parts, params);
    }
    uint64_t total = 0;
    for (auto& d : dests) total += d.num_tuples();
    if (total != input.num_tuples()) {
      state.SkipWithError("partition lost tuples");
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(input.num_tuples()));
}

void BM_Partition_Baseline(benchmark::State& state) {
  RunPartition(state, Scheme::kBaseline);
}
void BM_Partition_Simple(benchmark::State& state) {
  RunPartition(state, Scheme::kSimple);
}
void BM_Partition_Group(benchmark::State& state) {
  RunPartition(state, Scheme::kGroup);
}
void BM_Partition_Swp(benchmark::State& state) {
  RunPartition(state, Scheme::kSwp);
}
#if HASHJOIN_HAS_COROUTINES
void BM_Partition_Coro(benchmark::State& state) {
  RunPartition(state, Scheme::kCoro);
}
#endif

// {partitions, G, D}
BENCHMARK(BM_Partition_Baseline)
    ->Args({64, 1, 1})
    ->Args({800, 1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partition_Simple)
    ->Args({64, 1, 1})
    ->Args({800, 1, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partition_Group)
    ->Args({64, 14, 1})
    ->Args({800, 8, 1})
    ->Args({800, 14, 1})
    ->Args({800, 32, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partition_Swp)
    ->Args({64, 1, 4})
    ->Args({800, 1, 2})
    ->Args({800, 1, 4})
    ->Args({800, 1, 8})
    ->Unit(benchmark::kMillisecond);
#if HASHJOIN_HAS_COROUTINES
BENCHMARK(BM_Partition_Coro)
    ->Args({64, 14, 1})
    ->Args({800, 8, 1})
    ->Args({800, 14, 1})
    ->Args({800, 32, 1})
    ->Unit(benchmark::kMillisecond);
#endif

}  // namespace

// Disk-backed I/O partition pass (StoreRelation + Partition) through the
// fault-tolerant buffer manager. Uses a smaller input than the in-memory
// kernels above — the point is the relative checksum/recovery cost.
void DiskPartitionBench(benchmark::State& state, bool checksums,
                        double fault_rate, uint64_t fault_seed) {
  static const Relation& input =
      *new Relation(GenerateSourceRelation(100'000, 100, 42));
  uint64_t injected = 0, retries = 0;
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
    jc.num_partitions = 64;
    jc.page_checksums = checksums;
    DiskGraceJoin join(&bm, jc);
    auto file = join.StoreRelation(input);
    if (!file.ok()) {
      state.SkipWithError("store failed");
      break;
    }
    auto parts = join.Partition(file.value(), nullptr);
    if (!parts.ok()) {
      state.SkipWithError("partition failed");
      break;
    }
    uint64_t pages = 0;
    for (auto f : parts.value()) pages += bm.FileNumPages(f);
    if (pages == 0) {
      state.SkipWithError("partition produced nothing");
      break;
    }
    IoRecoveryStats stats = bm.recovery_stats();
    injected += stats.injected_faults;
    retries += stats.read_retries + stats.write_retries;
    benchmark::DoNotOptimize(pages);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(input.num_tuples()));
  state.counters["injected_faults"] = double(injected);
  state.counters["retries"] = double(retries);
}

// ---------------------------------------------------------------------------
// Machine-readable harness (--json): one record per (scheme, partitions).

namespace {

using bench::PartitionCodeCosts;  // shared Table-2 cost vector

int RunJsonHarness(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const uint64_t num_tuples = smoke ? 50'000 : 1'000'000;
  const uint32_t tuple_size = 100;

  perf::BenchReporter::Options opt;
  opt.bench_name = "real_partition";
  std::string path = flags.GetString("json", "");
  if (!path.empty() && path != "true") opt.output_path = path;
  opt.trials = int(flags.GetInt("trials", smoke ? 2 : 5));
  opt.warmup = int(flags.GetInt("warmup", 1));
  perf::BenchReporter reporter(std::move(opt));

  // Shared tuning resolution (see bench_common.h): paper partition-loop
  // optima when --tune=off, calibrated + LFB-clamped otherwise.
  const bench::TuningResolution tuning = bench::ResolveTuning(
      flags, PartitionCodeCosts(), bench::PaperPartitionDefaults());
  const KernelParams tuned = tuning.params;
  if (tuning.calibrated) reporter.SetCalibration(tuning.calibration);

  const Relation input =
      GenerateSourceRelation(num_tuples, tuple_size, 42);
  RealMemory mm;
  std::vector<uint32_t> part_counts =
      smoke ? std::vector<uint32_t>{16} : std::vector<uint32_t>{64, 800};

  const std::vector<Scheme> schemes = bench::SchemesFromFlag(flags);
  for (uint32_t parts : part_counts) {
    for (Scheme scheme : schemes) {
      std::vector<Relation> dests;
      uint64_t total = 0;
      bool ok = true;
      JsonValue config = JsonValue::Object();
      config.Set("phase", "partition");
      config.Set("scheme", SchemeName(scheme));
      config.Set("G", tuned.group_size);
      config.Set("D", tuned.prefetch_distance);
      config.Set("threads", 1);
      config.Set("partitions", parts);
      config.Set("tuple_size", tuple_size);
      config.Set("input_tuples", input.num_tuples());
      JsonValue& rec = reporter.AddRecord(
          std::string("partition/") + SchemeName(scheme) +
              "/parts=" + std::to_string(parts),
          std::move(config),
          /*body=*/
          [&] {
            {
              PartitionSinkSet sinks(&dests, kDefaultPageSize);
              PartitionRelation(mm, scheme, input, &sinks, parts, tuned);
            }
            total = 0;
            for (auto& d : dests) total += d.num_tuples();
            ok &= total == input.num_tuples();
          },
          /*setup=*/
          [&] {
            dests.clear();
            dests.reserve(parts);
            for (uint32_t p = 0; p < parts; ++p) {
              dests.emplace_back(input.schema());
            }
          });
      rec.Set("outputs", total);
      rec.Set("verified", ok);
      rec.Set("tuning", tuning.ToJson());
    }
  }

  if (!reporter.WriteAndReport(flags)) return 1;
  return 0;
}

}  // namespace

}  // namespace hashjoin

// Custom main (instead of BENCHMARK_MAIN) so the repo's fault flags can
// be stripped from argv before google-benchmark rejects them.
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
  double fault_rate = flags.GetDouble("fault-rate", 0.0);
  uint64_t fault_seed = uint64_t(flags.GetInt("fault-seed", 0x5EED));

  const char* repo_flags[] = {"--fault-rate", "--fault-seed", "--scheme",
                              "--tune"};
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

  benchmark::RegisterBenchmark("BM_DiskPartition/raw",
                               hashjoin::DiskPartitionBench,
                               /*checksums=*/false, 0.0, fault_seed)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("BM_DiskPartition/clean",
                               hashjoin::DiskPartitionBench,
                               /*checksums=*/true, 0.0, fault_seed)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  if (fault_rate > 0) {
    benchmark::RegisterBenchmark("BM_DiskPartition/faults",
                                 hashjoin::DiskPartitionBench,
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
