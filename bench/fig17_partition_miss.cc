// Figure 17: cache-miss breakdown of the partition loop for small,
// optimal, and large G / D — why the Figure-16 curves are concave.

#include <cstdio>

#include "bench_common.h"

using namespace hashjoin;
using namespace hashjoin::bench;

namespace {

void Report(const char* label, Scheme scheme, const Relation& input,
            uint32_t parts, const KernelParams& params,
            const sim::SimConfig& cfg) {
  SimRun r = RunPartitionPhaseSim(scheme, input, parts, params, cfg);
  const sim::SimStats& s = r.stats;
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
  uint32_t parts = uint32_t(flags.GetInt("partitions", 800));
  flags.RefuseUnread();

  uint64_t tuples = uint64_t(10'000'000 * geo.scale);
  Relation input = GenerateSourceRelation(tuples, 100, 42);

  std::printf(
      "=== Figure 17: partition-loop cache miss analysis (%u partitions) "
      "[scale=%.2f] ===\n\n",
      parts, geo.scale);

  std::printf("--- group prefetching ---\n");
  for (uint32_t g : {2u, 14u, 256u, 1024u}) {
    KernelParams p;
    p.group_size = g;
    char label[32];
    std::snprintf(label, sizeof(label), "G=%u", g);
    Report(label, Scheme::kGroup, input, parts, p, cfg);
  }

  std::printf("\n--- software-pipelined prefetching ---\n");
  for (uint32_t d : {1u, 4u, 32u, 128u}) {
    KernelParams p;
    p.prefetch_distance = d;
    char label[32];
    std::snprintf(label, sizeof(label), "D=%u", d);
    Report(label, Scheme::kSwp, input, parts, p, cfg);
  }

  std::printf(
      "\npaper: same pathologies as the join phase (Figure 13)\n");
  return 0;
}
