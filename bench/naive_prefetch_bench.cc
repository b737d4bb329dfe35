// The §3 argument as an experiment: naive prefetching *within* a hash
// table visit cannot hide miss latency, because each reference's address
// depends on the previous reference. Compares, in the simulator:
//   - chained bucket hashing, no prefetch (pointer chasing)
//   - chained bucket hashing + naive next-cell prefetch (§3's strawman)
//   - the paper's array-based table (Figure 2), baseline
//   - the paper's table + group prefetching (inter-tuple parallelism)
// The first two should be nearly identical; only the last is fast.

#include <cstdio>

#include "bench_common.h"
#include "join/chained_kernels.h"

using namespace hashjoin;
using namespace hashjoin::bench;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = flags.GetDouble("scale", 0.05);
  flags.RefuseUnread();
  sim::SimConfig cfg;

  WorkloadSpec spec;
  spec.tuple_size = 100;
  spec.num_build_tuples = geo.BuildTuples(100);
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  uint64_t buckets = ChooseBucketCount(w.build.num_tuples(), 31);

  std::printf("=== Naive prefetching vs inter-tuple prefetching "
              "(join phase, 100B tuples) [scale=%.2f] ===\n\n",
              geo.scale);

  auto run_chained = [&](ChainedPrefetch mode) {
    sim::MemorySim simulator(cfg);
    SimMemory mm(&simulator);
    ChainedHashTable ht(buckets);
    BuildChained(mm, w.build, &ht);
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
    uint64_t n = ProbeChained(mm, w.probe, ht, spec.tuple_size, mode, &out);
    HJ_CHECK(n == w.expected_matches);
    return simulator.stats();
  };
  auto run_array = [&](Scheme scheme) {
    return RunJoinPhaseSim(scheme, w, SimPaperJoinParams(), cfg).stats;
  };

  PrintBreakdown("chained baseline", run_chained(ChainedPrefetch::kNone));
  PrintBreakdown("chained naive-pf",
                 run_chained(ChainedPrefetch::kNextCell));
  PrintBreakdown("array baseline", run_array(Scheme::kBaseline));
  PrintBreakdown("array group-pf", run_array(Scheme::kGroup));

  std::printf(
      "\npaper (§3): dependent references form a critical path — "
      "addresses are generated too late for within-visit prefetching; "
      "only inter-tuple scheduling (group/swp) hides the latency\n");
  return 0;
}
