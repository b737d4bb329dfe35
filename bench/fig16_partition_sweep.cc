// Figure 16: partition-phase performance vs. the group size G and the
// prefetch distance D at 800 partitions — the same concave tuning curves
// as the join phase (Figure 12), on the k=2 partitioning pipeline.

#include <cstdio>

#include "bench_common.h"

using namespace hashjoin;
using namespace hashjoin::bench;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = flags.GetDouble("scale", 0.1);
  sim::SimConfig cfg;
  uint32_t parts = uint32_t(flags.GetInt("partitions", 800));
  flags.RefuseUnread();

  uint64_t tuples = uint64_t(10'000'000 * geo.scale);
  Relation input = GenerateSourceRelation(tuples, 100, 42);

  std::printf(
      "=== Figure 16: partition-phase parameter tuning (%u partitions) "
      "[scale=%.2f] ===\n\n",
      parts, geo.scale);

  std::printf("--- group prefetching ---\n%-8s %14s\n", "G", "cycles");
  for (uint32_t g : {2u, 4u, 8u, 14u, 19u, 25u, 32u, 48u, 64u, 96u, 128u,
                     256u}) {
    KernelParams p;
    p.group_size = g;
    SimRun r = RunPartitionPhaseSim(Scheme::kGroup, input, parts, p, cfg);
    std::printf("%-8u %14llu\n", g,
                (unsigned long long)r.stats.TotalCycles());
  }

  std::printf("\n--- software-pipelined prefetching ---\n%-8s %14s\n", "D",
              "cycles");
  for (uint32_t d : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u}) {
    KernelParams p;
    p.prefetch_distance = d;
    SimRun r = RunPartitionPhaseSim(Scheme::kSwp, input, parts, p, cfg);
    std::printf("%-8u %14llu\n", d,
                (unsigned long long)r.stats.TotalCycles());
  }

  std::printf("\npaper: concave shapes as in the join phase\n");
  return 0;
}
