// Hash-based GROUP BY with group prefetching — the extension the paper's
// conclusion proposes. Computes COUNT(*) and SUM(value) per key over a
// skewed fact relation and compares the baseline aggregation loop with
// the group-prefetched one on real hardware.
//
//   ./groupby_agg [--tuples=N] [--groups=N] [--g=G]

#include <cstdio>
#include <cstring>

#include "join/aggregate_kernels.h"
#include "mem/memory_model.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace hashjoin;

namespace {

// Fact relation: 4-byte group key + 8-byte value + padding.
Relation MakeFacts(uint64_t tuples, uint64_t groups, uint64_t seed) {
  Relation rel(Schema({{"key", AttrType::kInt32, 4},
                       {"value", AttrType::kInt64, 8},
                       {"pad", AttrType::kFixedChar, 8}}));
  Rng rng(seed);
  for (uint64_t i = 0; i < tuples; ++i) {
    uint8_t t[20] = {};
    uint32_t key = uint32_t(rng.NextBounded(groups));
    int64_t value = int64_t(rng.NextBounded(1000));
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    rel.Append(t, sizeof(t), HashKey32(key));
  }
  return rel;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  uint64_t tuples = uint64_t(flags.GetInt("tuples", 4000000));
  uint64_t groups = uint64_t(flags.GetInt("groups", 2000000));
  uint32_t g = uint32_t(flags.GetInt("g", 19));
  flags.RefuseUnread();

  Relation facts = MakeFacts(tuples, groups, 99);
  std::printf("aggregating %llu tuples into <=%llu groups\n",
              (unsigned long long)tuples, (unsigned long long)groups);

  RealMemory mm;
  uint64_t buckets = NextRelativelyPrime(groups, 31);

  HashAggTable base_agg(buckets);
  WallTimer t1;
  AggregateBaseline(mm, facts, /*value_offset=*/4, &base_agg);
  double base_s = t1.ElapsedSeconds();
  std::printf("baseline:        %.3fs  (%.1fM tuples/s), %llu groups\n",
              base_s, double(tuples) / base_s / 1e6,
              (unsigned long long)base_agg.num_groups());

  HashAggTable gp_agg(buckets);
  WallTimer t2;
  AggregateGroup(mm, facts, /*value_offset=*/4, &gp_agg, g);
  double gp_s = t2.ElapsedSeconds();
  std::printf("group-prefetch:  %.3fs  (%.1fM tuples/s), %llu groups  "
              "[%.2fx]\n",
              gp_s, double(tuples) / gp_s / 1e6,
              (unsigned long long)gp_agg.num_groups(), base_s / gp_s);

  // Verify both aggregations agree.
  if (base_agg.num_groups() != gp_agg.num_groups()) {
    std::fprintf(stderr, "group count mismatch\n");
    return 1;
  }
  uint64_t checked = 0;
  bool ok = true;
  base_agg.ForEachGroup([&](const AggState& s) {
    if (checked++ % 997 != 0) return;  // spot-check
    const AggState* other = gp_agg.Find(s.key);
    if (other == nullptr || other->count != s.count ||
        other->sum != s.sum) {
      ok = false;
    }
  });
  std::printf("verification: %s\n", ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
