// Figure 15: execution time breakdown of the partition phase at 800
// partitions. Group and software-pipelined prefetching hide most of the
// data-cache stalls the baseline and simple schemes expose when the
// output buffers overflow the L2 cache.

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

  uint64_t tuples = uint64_t(10'000'000 * geo.scale);
  Relation input = GenerateSourceRelation(tuples, 100, 42);
  uint32_t parts = uint32_t(flags.GetInt("partitions", 800));

  KernelParams params;
  params.group_size = uint32_t(flags.GetInt("g", 14));
  params.prefetch_distance = uint32_t(flags.GetInt("d", 4));
  flags.RefuseUnread();

  std::printf(
      "=== Figure 15: partition phase breakdown (%u partitions) "
      "[scale=%.2f] ===\n",
      parts, geo.scale);
  for (Scheme s : AllSchemes()) {
    SimRun r = RunPartitionPhaseSim(s, input, parts, params, cfg);
    PrintBreakdown(SchemeName(s), r.stats);
  }
  std::printf(
      "\npaper: group/swp hide most dcache stalls at 800 partitions\n");
  return 0;
}
