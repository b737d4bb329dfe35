// Real-hardware measurement of the partition phase: baseline / simple /
// group / software-pipelined / coroutine prefetching at small and large
// partition counts. The crossover mirrors Figure 14: with few
// partitions the output buffers stay cache-resident and simple
// prefetching suffices; with many, inter-tuple prefetching wins.
//
// Every run writes one BenchReporter record per configuration (warm-up +
// trials, hardware counters when available; see
// src/perf/bench_reporter.h) to BENCH_real_partition.json, or to the
// file --json=PATH names:
//   partition/<scheme>/parts=P       in-memory partitioning into 64 and
//                                    800 partitions (16 under --smoke)
//   disk_partition/{raw,clean,faults} the I/O partition pass
//                                    (StoreRelation + Partition) through
//                                    the fault-tolerant buffer manager:
//                                    no checksums, checksums, and (when
//                                    --fault-rate=R > 0) seeded transient
//                                    errors + torn pages with write
//                                    verification (--fault-seed=S); raw
//                                    vs clean isolates the checksum cost,
//                                    clean vs faults the recovery cost
// --smoke shrinks the inputs for ctest; --scheme picks the schemes;
// --tune=static calibrates T/Tnext plus the LFB ceiling and picks G and
// D via the shared bench::ResolveTuning.

#include <cstdio>
#include <memory>
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
#include "storage/slotted_page.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

using bench::PartitionCodeCosts;  // shared Table-2 cost vector

int Run(const FlagParser& flags) {
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

  // --- the I/O partition pass through the fault-tolerant buffer
  // manager, on a smaller input: the point is the relative checksum and
  // recovery cost ---
  const Relation disk_input =
      GenerateSourceRelation(smoke ? 20'000 : 100'000, tuple_size, 42);
  constexpr uint32_t kDiskPartitions = 64;
  for (const bench::FaultSweepCase& dc : bench::FaultSweepCases(flags)) {
    // Each trial builds its own disks; the last trial's outlive the
    // trials, so its partition files are counted (and its recovery
    // stats read) outside the timed window. Teardown is untimed too.
    std::unique_ptr<BufferManager> bm;
    std::vector<BufferManager::FileId> files;
    bool ok = true;
    JsonValue cfg = JsonValue::Object();
    cfg.Set("phase", "disk_partition");
    cfg.Set("checksums", dc.checksums);
    cfg.Set("fault_rate", dc.fault_rate);
    cfg.Set("fault_seed", dc.fault_seed);
    cfg.Set("partitions", kDiskPartitions);
    cfg.Set("tuple_size", tuple_size);
    cfg.Set("input_tuples", disk_input.num_tuples());
    JsonValue& rec = reporter.AddRecord(
        std::string("disk_partition/") + dc.name, std::move(cfg),
        /*body=*/
        [&] {
          bm = std::make_unique<BufferManager>(dc.Disks());
          DiskGraceJoin join(bm.get(), kDiskPartitions);
          auto file = join.StoreRelation(disk_input);
          if (!file.ok()) {
            ok = false;
            return;
          }
          auto parts = join.Partition(file.value(), nullptr);
          if (!parts.ok()) {
            ok = false;
            return;
          }
          files = parts.value();
        },
        /*setup=*/
        [&] {
          bm.reset();
          files.clear();
        });
    const IoRecoveryStats io = bm->recovery_stats();
    uint64_t outputs = 0;
    for (BufferManager::FileId f : files) {
      auto scan = bm->OpenScan(f);
      const uint8_t* page = nullptr;
      while (scan.NextPage(&page).ok() && page != nullptr) {
        outputs += SlottedPage::Attach(const_cast<uint8_t*>(page))
                       .slot_count();
      }
    }
    rec.Set("outputs", outputs);
    rec.Set("verified", ok && outputs == disk_input.num_tuples());
    bench::kIoRecoveryBlock.Set(&rec, io);
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
