// Figure 1: user-mode execution time breakdown of the GRACE hash join's
// partition phase (one relation -> 800 partitions) and join phase (one
// 50MB build partition joined with its probe partition). The paper
// reports 82% (partition) and 73% (join) of user time stalled on data
// cache misses.

#include <cstdio>

#include "bench_common.h"

using namespace hashjoin;
using namespace hashjoin::bench;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = flags.GetDouble("scale", 0.1);
  flags.RefuseUnread();
  sim::SimConfig cfg;

  std::printf("=== Figure 1: execution time breakdown (GRACE baseline) "
              "[scale=%.2f] ===\n", geo.scale);

  // --- partition bar: scaled 1GB relation -> 800 partitions ---
  {
    uint64_t tuples = uint64_t(1024.0 * 1024 * 1024 * geo.scale) / 100;
    Relation input = GenerateSourceRelation(tuples, 100, 42);
    SimRun r = RunPartitionPhaseSim(Scheme::kBaseline, input, 800,
                                    KernelParams{}, cfg);
    PrintBreakdown("partition (800 parts)", r.stats);
  }

  // --- join bar: 50MB build partition + 100MB probe partition ---
  {
    WorkloadSpec spec;
    spec.tuple_size = 100;
    spec.num_build_tuples = geo.BuildTuples(100);
    spec.matches_per_build = 2.0;
    JoinWorkload w = GenerateJoinWorkload(spec);
    SimRun r = RunJoinPhaseSim(Scheme::kBaseline, w, KernelParams{}, cfg);
    PrintBreakdown("join (50MB build)", r.stats);
  }

  std::printf("\npaper: partition 82%% dcache stall, join 73%% dcache "
              "stall\n");
  return 0;
}
