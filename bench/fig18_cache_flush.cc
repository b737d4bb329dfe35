// Figure 18: robustness against cache interference. The caches are
// flushed every 10ms..2ms (the worst-case multiprogramming interference)
// and each scheme's join-phase time is normalized to its own no-flush
// run (= 100). Cache partitioning relies on exclusive cache use and
// degrades (paper: direct 15-67%, two-step 8-38%); the prefetching
// schemes barely move.

#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace hashjoin;
using namespace hashjoin::bench;

namespace {

struct Config {
  const char* name;
  Scheme scheme;
  GraceConfig::CacheMode mode;
};

uint64_t JoinPhaseCycles(const Config& c, const JoinWorkload& w,
                         uint64_t memory_budget, uint64_t flush_cycles) {
  sim::SimConfig scfg;
  scfg.flush_period_cycles = flush_cycles;
  sim::MemorySim simulator(scfg);
  SimMemory mm(&simulator);
  GraceConfig gc;
  gc.memory_budget = memory_budget;
  gc.join_scheme = c.scheme;
  gc.partition_scheme = Scheme::kGroup;
  gc.combined_partition = true;
  gc.cache_mode = c.mode;
  gc.join_params = SimPaperJoinParams();
  JoinResult r = GraceHashJoin(mm, w.build, w.probe, gc, nullptr);
  return r.join_phase.sim.TotalCycles();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  double scale = flags.GetDouble("scale", 0.05);
  flags.RefuseUnread();

  // Scaled 200MB build / 400MB probe relations, 100B tuples.
  WorkloadSpec spec;
  spec.tuple_size = 100;
  spec.num_build_tuples = uint64_t(200.0 * 1024 * 1024 * scale) / 100;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  uint64_t budget = uint64_t(50.0 * 1024 * 1024 * scale);

  std::vector<Config> configs = {
      {"baseline", Scheme::kBaseline, GraceConfig::CacheMode::kNone},
      {"simple", Scheme::kSimple, GraceConfig::CacheMode::kNone},
      {"group", Scheme::kGroup, GraceConfig::CacheMode::kNone},
      {"swp", Scheme::kSwp, GraceConfig::CacheMode::kNone},
      // Cache partitioning enhanced with simple prefetching (§7.5:
      // "wherever possible") — its premise is that cache residency makes
      // inter-tuple prefetching of table visits unnecessary.
      {"direct-cache", Scheme::kSimple, GraceConfig::CacheMode::kDirect},
      {"2-step-cache", Scheme::kSimple, GraceConfig::CacheMode::kTwoStep},
  };

  // Flush periods in cycles at 1GHz: none, 10ms, 5ms, 3.3ms, 2ms.
  std::vector<uint64_t> periods = {0, 10'000'000, 5'000'000, 3'333'333,
                                   2'000'000};

  std::printf(
      "=== Figure 18: join-phase time under periodic cache flushing, "
      "normalized to no-flush = 100 [scale=%.2f] ===\n\n",
      scale);
  std::printf("%-14s %10s %10s %10s %10s %10s\n", "scheme", "none", "10ms",
              "5ms", "3.3ms", "2ms");
  for (const Config& c : configs) {
    std::printf("%-14s", c.name);
    uint64_t base = 0;
    for (uint64_t period : periods) {
      uint64_t cycles = JoinPhaseCycles(c, w, budget, period);
      if (period == 0) {
        base = cycles;
        std::printf(" %10s", "100.0");
      } else {
        std::printf(" %10.1f", 100.0 * double(cycles) / double(base));
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\npaper: direct cache degrades 15-67%%, two-step 8-38%%; "
      "prefetching schemes stay near 100\n");
  return 0;
}
