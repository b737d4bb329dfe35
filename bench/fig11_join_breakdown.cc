// Figure 11: execution time breakdown of the join phase (100B tuples,
// 2 matches per build tuple) for all four schemes. Group and
// software-pipelined prefetching hide most data-cache stalls; their
// bookkeeping shows up as extra busy time, with software pipelining the
// costlier of the two.

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

  WorkloadSpec spec;
  spec.tuple_size = 100;
  spec.num_build_tuples = geo.BuildTuples(100);
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  KernelParams params;
  params.group_size = uint32_t(flags.GetInt("g", 14));
  params.prefetch_distance = uint32_t(flags.GetInt("d", 1));
  flags.RefuseUnread();

  std::printf(
      "=== Figure 11: join phase breakdown (100B tuples) [scale=%.2f] "
      "===\n",
      geo.scale);
  for (Scheme s : AllSchemes()) {
    SimRun r = RunJoinPhaseSim(s, w, params, cfg);
    PrintBreakdown(SchemeName(s), r.stats);
  }
  std::printf(
      "\npaper: prefetching schemes hide most dcache stalls; remaining "
      "misses are L1 conflicts; busy time grows with bookkeeping\n");
  return 0;
}
