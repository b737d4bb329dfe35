// Pipelined query execution through the operator layer: a filtered join
// feeding an aggregation, with the hash join emitting outputs at
// prefetch-group boundaries (§5.4's pipelined query processing).
//
//   SELECT b.key, COUNT(*), SUM(value)
//   FROM build b JOIN probe p ON b.key = p.key
//   WHERE b.key % 10 < 5
//   GROUP BY b.key;
//
//   ./pipeline_query [--build_tuples=N]

#include <cstdio>
#include <cstring>

#include "exec/operators.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace hashjoin;
using namespace hashjoin::exec;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  WorkloadSpec spec;
  spec.num_build_tuples = uint64_t(flags.GetInt("build_tuples", 200000));
  flags.RefuseUnread();
  spec.tuple_size = 32;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  auto keyof = [](const uint8_t* row) {
    uint32_t k;
    std::memcpy(&k, row, 4);
    return k;
  };

  // Plan: Scan(build) -> Filter -> HashJoin(group prefetching) <- Scan(probe)
  //       -> Aggregate(group prefetching)
  auto filter = std::make_unique<FilterOperator>(
      std::make_unique<ScanOperator>(&w.build, 19),
      [&](const uint8_t* row, uint16_t) { return keyof(row) % 10 < 5; });
  auto join = std::make_unique<HashJoinOperator>(
      std::move(filter), std::make_unique<ScanOperator>(&w.probe, 19),
      Scheme::kGroup);
  AggregateOperator agg(std::move(join), /*value_offset=*/4);

  WallTimer t;
  if (Status s = agg.Open(); !s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  RowBatch batch;
  uint64_t groups = 0;
  uint64_t joined_rows = 0;
  while (agg.Next(&batch)) {
    for (const auto& row : batch.rows) {
      int64_t count;
      std::memcpy(&count, row.data + 4, 8);
      joined_rows += uint64_t(count);
      ++groups;
    }
  }
  std::printf("pipeline finished in %.3fs: %llu joined rows in %llu "
              "groups\n",
              t.ElapsedSeconds(), (unsigned long long)joined_rows,
              (unsigned long long)groups);

  // The filter keeps keys with key%10 in {0..4}; each matches 2 probe
  // tuples -> joined rows should be ~half the probe relation.
  uint64_t expect_groups = 0;
  for (uint64_t k = 1; k <= spec.num_build_tuples; ++k) {
    if (k % 10 < 5) ++expect_groups;
  }
  std::printf("expected %llu groups: %s\n",
              (unsigned long long)expect_groups,
              groups == expect_groups ? "OK" : "MISMATCH");
  return groups == expect_groups ? 0 : 1;
}
