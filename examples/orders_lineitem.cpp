// A decision-support style equijoin (the workload class the paper's
// introduction motivates): orders ⋈ lineitem on orderkey, with multi-
// column schemas, ~4 lineitems per order, and a fraction of orders with
// no lineitems. Runs every scheme on real hardware AND once through the
// simulated memory hierarchy to show the cycle breakdown.
//
//   ./orders_lineitem [--orders=N]

#include <cstdio>
#include <cstring>

#include "join/grace.h"
#include "mem/memory_model.h"
#include "util/flags.h"
#include "util/random.h"

using namespace hashjoin;

namespace {

Schema OrdersSchema() {
  return Schema({{"o_orderkey", AttrType::kInt32, 4},
                 {"o_custkey", AttrType::kInt32, 4},
                 {"o_totalprice", AttrType::kInt64, 8},
                 {"o_orderdate", AttrType::kInt32, 4},
                 {"o_comment", AttrType::kFixedChar, 44}});
}

Schema LineitemSchema() {
  return Schema({{"l_orderkey", AttrType::kInt32, 4},
                 {"l_partkey", AttrType::kInt32, 4},
                 {"l_quantity", AttrType::kInt32, 4},
                 {"l_extendedprice", AttrType::kInt64, 8},
                 {"l_comment", AttrType::kFixedChar, 28}});
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  uint64_t num_orders = uint64_t(flags.GetInt("orders", 150000));
  Rng rng(2026);

  // Build side: orders. Join keys are memoized hash codes in the slots,
  // exactly what the partition phase would produce.
  Schema orders_schema = OrdersSchema();
  Relation orders(orders_schema);
  std::vector<uint8_t> tuple(orders_schema.fixed_size());
  for (uint64_t i = 0; i < num_orders; ++i) {
    uint32_t orderkey = uint32_t(i + 1);
    std::memset(tuple.data(), 0, tuple.size());
    std::memcpy(tuple.data() + orders_schema.offset(0), &orderkey, 4);
    uint32_t custkey = uint32_t(rng.NextBounded(num_orders / 10 + 1));
    std::memcpy(tuple.data() + orders_schema.offset(1), &custkey, 4);
    int64_t total = int64_t(rng.NextBounded(1000000));
    std::memcpy(tuple.data() + orders_schema.offset(2), &total, 8);
    orders.Append(tuple.data(), uint16_t(tuple.size()),
                  HashKey32(orderkey));
  }

  // Probe side: lineitems, 1-7 per order for 90% of orders.
  Schema li_schema = LineitemSchema();
  Relation lineitem(li_schema);
  std::vector<uint8_t> li(li_schema.fixed_size());
  uint64_t expected = 0;
  std::vector<uint32_t> keys;
  for (uint64_t i = 0; i < num_orders; ++i) {
    if (rng.NextBool(0.1)) continue;  // order without lineitems
    uint64_t items = 1 + rng.NextBounded(7);
    for (uint64_t j = 0; j < items; ++j) keys.push_back(uint32_t(i + 1));
    expected += items;
  }
  rng.Shuffle(&keys);
  for (uint32_t orderkey : keys) {
    std::memset(li.data(), 0, li.size());
    std::memcpy(li.data() + li_schema.offset(0), &orderkey, 4);
    int64_t price = int64_t(rng.NextBounded(100000));
    std::memcpy(li.data() + li_schema.offset(3), &price, 8);
    lineitem.Append(li.data(), uint16_t(li.size()), HashKey32(orderkey));
  }
  std::printf("orders: %llu (%.1f MB), lineitem: %llu (%.1f MB)\n",
              (unsigned long long)orders.num_tuples(),
              double(orders.data_bytes()) / 1e6,
              (unsigned long long)lineitem.num_tuples(),
              double(lineitem.data_bytes()) / 1e6);

  // Real-hardware comparison of all four schemes on one partition pair.
  KernelParams params;
  params.group_size = 19;
  params.prefetch_distance = 4;
  for (Scheme s : {Scheme::kBaseline, Scheme::kSimple, Scheme::kGroup,
                   Scheme::kSwp}) {
    RealMemory mm;
    WallTimer t;
    HashTable ht(ChooseBucketCount(orders.num_tuples(), 31));
    BuildPartition(mm, s, orders, &ht, params);
    Relation out(ConcatSchema(orders_schema, li_schema));
    uint64_t n = ProbePartition(mm, s, lineitem, ht,
                                orders_schema.fixed_size(), params, &out);
    double secs = t.ElapsedSeconds();
    std::printf("%-9s %.3fs  (%.1fM lineitems/s)  outputs=%llu\n",
                SchemeName(s), secs,
                double(lineitem.num_tuples()) / secs / 1e6,
                (unsigned long long)n);
    if (n != expected) {
      std::fprintf(stderr, "wrong result: %llu != %llu\n",
                   (unsigned long long)n, (unsigned long long)expected);
      return 1;
    }
  }

  // Simulated cycle breakdown for baseline vs group prefetching.
  for (Scheme s : {Scheme::kBaseline, Scheme::kGroup}) {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    HashTable ht(ChooseBucketCount(orders.num_tuples(), 31));
    BuildPartition(mm, s, orders, &ht, params);
    Relation out(ConcatSchema(orders_schema, li_schema));
    ProbePartition(mm, s, lineitem, ht, orders_schema.fixed_size(),
                   params, &out);
    sim::SimStats st = simulator.stats();
    std::printf("[sim] %-9s %s\n", SchemeName(s),
                fields::ToJson(st).Dump(0).c_str());
  }
  return 0;
}
