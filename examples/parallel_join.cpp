// Parallel join: run the same GRACE join serially and on the
// morsel-parallel executor, verify the outputs agree, and print the
// wall-clock speedup. With a simulated memory model it also prints the
// per-thread stall breakdown the executor collects.
//
//   ./parallel_join [--threads=N] [--build_tuples=N] [--partitions=P]

#include <cstdio>

#include "join/grace.h"
#include "mem/memory_model.h"
#include "simcache/memory_sim.h"
#include "util/flags.h"
#include "workload/generator.h"

using namespace hashjoin;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  uint32_t threads = uint32_t(flags.GetInt("threads", 4));

  WorkloadSpec spec;
  spec.num_build_tuples = uint64_t(flags.GetInt("build_tuples", 400000));
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  GraceConfig config;
  config.forced_num_partitions =
      uint32_t(flags.GetInt("partitions", 8));
  flags.RefuseUnread();
  std::printf("build: %llu tuples, probe: %llu tuples, partitions: %u\n",
              (unsigned long long)w.build.num_tuples(),
              (unsigned long long)w.probe.num_tuples(),
              config.forced_num_partitions);

  // 1. Real memory: serial reference vs N workers. Each worker runs the
  //    unchanged prefetching kernels on its own partition pairs; the
  //    scheduler hands out the largest pairs first.
  RealMemory mm;
  config.num_threads = 1;
  JoinResult serial = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
  config.num_threads = threads;
  JoinResult parallel = GraceHashJoin(mm, w.build, w.probe, config, nullptr);

  std::printf("serial   (1 thread):  join %.3fs, %llu output tuples\n",
              serial.join_phase.wall_seconds,
              (unsigned long long)serial.output_tuples);
  std::printf("parallel (%u threads): join %.3fs, %llu output tuples\n",
              threads, parallel.join_phase.wall_seconds,
              (unsigned long long)parallel.output_tuples);
  if (parallel.join_phase.wall_seconds > 0) {
    std::printf("join-phase speedup: %.2fx (scales with online cores)\n",
                serial.join_phase.wall_seconds /
                    parallel.join_phase.wall_seconds);
  }
  if (serial.output_tuples != parallel.output_tuples ||
      serial.output_tuples != w.expected_matches) {
    std::printf("MISMATCH: expected %llu\n",
                (unsigned long long)w.expected_matches);
    return 1;
  }

  // 2. Simulated memory: every worker is its own simulated core; the
  //    executor returns each worker's cycle breakdown and merges the
  //    totals back so phase accounting stays exact.
  sim::SimConfig cfg;
  sim::MemorySim simulator(cfg);
  SimMemory smm(&simulator);
  JoinResult sim_run = GraceHashJoin(smm, w.build, w.probe, config, nullptr);
  std::printf("\nsimulated per-thread join-phase cycles:\n");
  for (size_t t = 0; t < sim_run.per_thread_join_sim.size(); ++t) {
    const sim::SimStats& s = sim_run.per_thread_join_sim[t];
    std::printf("  thread %zu: total=%llu busy=%llu dcache_stall=%llu\n", t,
                (unsigned long long)s.TotalCycles(),
                (unsigned long long)s.busy_cycles,
                (unsigned long long)s.dcache_stall_cycles);
  }
  std::printf("  merged:   total=%llu\n",
              (unsigned long long)sim_run.join_phase.sim.TotalCycles());
  return 0;
}
