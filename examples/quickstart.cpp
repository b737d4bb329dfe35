// Quickstart: join two generated relations with the GRACE hash join and
// group prefetching, verify the result count, and print per-phase times.
//
//   ./quickstart [--build_tuples=N] [--tuple_size=B] [--scheme=group]

#include <cstdio>

#include "join/grace.h"
#include "mem/memory_model.h"
#include "util/flags.h"
#include "workload/generator.h"

using namespace hashjoin;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);

  // 1. Describe the workload: tuples are a 4-byte key plus payload; every
  //    build tuple matches two probe tuples.
  WorkloadSpec spec;
  spec.num_build_tuples = uint64_t(flags.GetInt("build_tuples", 200000));
  spec.tuple_size = uint32_t(flags.GetInt("tuple_size", 100));
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  std::printf("build: %llu tuples (%.1f MB), probe: %llu tuples (%.1f MB)\n",
              (unsigned long long)w.build.num_tuples(),
              double(w.build.data_bytes()) / 1e6,
              (unsigned long long)w.probe.num_tuples(),
              double(w.probe.data_bytes()) / 1e6);

  // 2. Configure the join: memory budget for the join phase and the
  //    cache-prefetching scheme for both phases.
  GraceConfig config;
  config.memory_budget = 8ull << 20;
  std::string scheme = flags.GetString("scheme", "group");
  flags.RefuseUnread();
  Scheme s = scheme == "baseline" ? Scheme::kBaseline
             : scheme == "simple" ? Scheme::kSimple
             : scheme == "swp"    ? Scheme::kSwp
                                  : Scheme::kGroup;
  config.partition_scheme = s;
  config.join_scheme = s;

  // 3. Run on real memory (RealMemory lowers the prefetch hooks to actual
  //    PREFETCH instructions and everything else to nothing).
  RealMemory mm;
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
  JoinResult r = GraceHashJoin(mm, w.build, w.probe, config, &out);

  std::printf("scheme=%s partitions=%u\n", SchemeName(s),
              r.num_partitions);
  std::printf("partition phase: %.3fs\n", r.partition_phase.wall_seconds);
  std::printf("join phase:      %.3fs\n", r.join_phase.wall_seconds);
  std::printf("output tuples:   %llu (expected %llu)\n",
              (unsigned long long)r.output_tuples,
              (unsigned long long)w.expected_matches);
  return r.output_tuples == w.expected_matches ? 0 : 1;
}
