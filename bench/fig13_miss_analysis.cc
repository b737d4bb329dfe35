// Figure 13: cache-miss breakdown of the probing loop for small, optimal,
// and large G / D. Too-small parameters leave prefetches partially
// complete at visit time; too-large parameters evict prefetched lines
// before use (cache conflicts), re-exposing full misses.

#include <cstdio>

#include "bench_common.h"

using namespace hashjoin;
using namespace hashjoin::bench;

namespace {

void Report(const char* label, Scheme scheme, const JoinWorkload& w,
            const KernelParams& params, const sim::SimConfig& cfg) {
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildPartition(mm, Scheme::kGroup, w.build, &ht, params);
  simulator.ResetStats();
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
  ProbePartition(mm, scheme, w.probe, ht, w.build.schema().fixed_size(),
                 params, &out);
  sim::SimStats s = simulator.stats();
  uint64_t demand = s.DemandLineAccesses();
  auto pct = [&](uint64_t v) {
    return demand == 0 ? 0.0 : 100.0 * double(v) / double(demand);
  };
  std::printf(
      "%-14s cycles=%12llu  hidden=%5.1f%%  late=%5.1f%%  full=%5.1f%%  "
      "l2hit=%5.1f%%  l1hit=%5.1f%%  pf_evicted=%llu\n",
      label, (unsigned long long)s.TotalCycles(), pct(s.prefetch_hidden),
      pct(s.prefetch_partial), pct(s.full_misses), pct(s.l2_hits),
      pct(s.l1_hits), (unsigned long long)s.prefetch_evicted_before_use);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = flags.GetDouble("scale", 0.1);
  sim::SimConfig cfg;

  WorkloadSpec spec;
  spec.tuple_size = uint32_t(flags.GetInt("tuple_size", 20));
  flags.RefuseUnread();
  spec.num_build_tuples = geo.BuildTuples(spec.tuple_size);
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  std::printf(
      "=== Figure 13: probing-loop cache miss analysis [scale=%.2f] "
      "===\n\n",
      geo.scale);

  std::printf("--- group prefetching ---\n");
  for (uint32_t g : {2u, 19u, 256u, 1024u}) {
    KernelParams p;
    p.group_size = g;
    char label[32];
    std::snprintf(label, sizeof(label), "G=%u", g);
    Report(label, Scheme::kGroup, w, p, cfg);
  }

  std::printf("\n--- software-pipelined prefetching ---\n");
  for (uint32_t d : {1u, 2u, 32u, 128u}) {
    KernelParams p;
    p.prefetch_distance = d;
    char label[32];
    std::snprintf(label, sizeof(label), "D=%u", d);
    Report(label, Scheme::kSwp, w, p, cfg);
  }

  std::printf(
      "\npaper: small G/D -> partially hidden latencies; large G/D -> "
      "prefetched lines evicted by conflicts before use\n");
  return 0;
}
