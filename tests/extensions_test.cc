// Tests for the extension features: chained-bucket contrast table and
// software-pipelined aggregation.

#include <cstring>
#include <map>

#include "gtest/gtest.h"
#include "join/aggregate_kernels.h"
#include "join/chained_kernels.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "util/bitops.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

uint32_t KeyOf(const uint8_t* t) {
  uint32_t k;
  std::memcpy(&k, t, 4);
  return k;
}

// ---------- chained hash table ----------

TEST(ChainedHashTableTest, InsertAndProbe) {
  ChainedHashTable ht(101);
  std::vector<std::vector<uint8_t>> tuples;
  for (uint32_t k = 0; k < 1000; ++k) {
    tuples.push_back(std::vector<uint8_t>(16, 0));
    std::memcpy(tuples.back().data(), &k, 4);
    ht.Insert(HashKey32(k), tuples.back().data());
  }
  EXPECT_EQ(ht.num_tuples(), 1000u);
  EXPECT_EQ(ht.CountTuplesSlow(), 1000u);
  for (uint32_t k = 0; k < 1000; ++k) {
    int exact = 0;
    ht.Probe(HashKey32(k), [&](const uint8_t* t) {
      if (KeyOf(t) == k) ++exact;
    });
    ASSERT_EQ(exact, 1) << k;
  }
}

TEST(ChainedHashTableTest, DuplicatesChainInOneBucket) {
  ChainedHashTable ht(1);
  std::vector<uint8_t> t(16, 0);
  for (int i = 0; i < 50; ++i) ht.Insert(7, t.data());
  int found = 0;
  ht.Probe(7, [&](const uint8_t*) { ++found; });
  EXPECT_EQ(found, 50);
}

class ChainedProbeTest : public ::testing::TestWithParam<ChainedPrefetch> {};

TEST_P(ChainedProbeTest, JoinResultMatchesExpected) {
  WorkloadSpec spec;
  spec.num_build_tuples = 4000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.8;
  JoinWorkload w = GenerateJoinWorkload(spec);
  RealMemory mm;
  ChainedHashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildChained(mm, w.build, &ht);
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
  uint64_t n =
      ProbeChained(mm, w.probe, ht, spec.tuple_size, GetParam(), &out);
  EXPECT_EQ(n, w.expected_matches);
  EXPECT_EQ(out.num_tuples(), w.expected_matches);
  out.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    ASSERT_EQ(len, 2 * spec.tuple_size);
    ASSERT_EQ(KeyOf(t), KeyOf(t + spec.tuple_size));
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, ChainedProbeTest,
                         ::testing::Values(ChainedPrefetch::kNone,
                                           ChainedPrefetch::kNextCell),
                         [](const auto& info) {
                           return info.param == ChainedPrefetch::kNone
                                      ? "none"
                                      : "naive";
                         });

TEST(ChainedProbeTest, NaivePrefetchGainsAlmostNothingInSimulator) {
  // The §3 claim, asserted: within-visit prefetching of the next chain
  // cell saves at most a few percent.
  WorkloadSpec spec;
  spec.num_build_tuples = 20000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);
  auto run = [&](ChainedPrefetch mode) {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    ChainedHashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
    BuildChained(mm, w.build, &ht);
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
    ProbeChained(mm, w.probe, ht, spec.tuple_size, mode, &out);
    return simulator.stats().TotalCycles();
  };
  uint64_t none = run(ChainedPrefetch::kNone);
  uint64_t naive = run(ChainedPrefetch::kNextCell);
  EXPECT_LT(none, naive * 110 / 100);  // within 10% of each other
  EXPECT_GT(none, naive * 90 / 100);
}

// ---------- software-pipelined aggregation ----------

class AggregateSwpTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AggregateSwpTest, MatchesBaseline) {
  Relation facts(Schema({{"key", AttrType::kInt32, 4},
                         {"value", AttrType::kInt64, 8},
                         {"pad", AttrType::kFixedChar, 4}}));
  Rng rng(51);
  for (int i = 0; i < 20000; ++i) {
    uint8_t t[16] = {};
    uint32_t key = uint32_t(rng.NextBounded(3000));
    int64_t value = rng.NextInRange(-20, 20);
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    facts.Append(t, sizeof(t), HashKey32(key));
  }
  RealMemory mm;
  HashAggTable base(NextRelativelyPrime(3000, 31));
  AggregateBaseline(mm, facts, 4, &base);
  HashAggTable swp(NextRelativelyPrime(3000, 31));
  AggregateSwp(mm, facts, 4, &swp, GetParam());
  ASSERT_EQ(swp.num_groups(), base.num_groups());
  base.ForEachGroup([&](const AggState& s) {
    const AggState* other = swp.Find(s.key);
    ASSERT_NE(other, nullptr) << s.key;
    EXPECT_EQ(other->count, s.count) << s.key;
    EXPECT_EQ(other->sum, s.sum) << s.key;
  });
}

INSTANTIATE_TEST_SUITE_P(Distances, AggregateSwpTest,
                         ::testing::Values(1, 2, 5, 16));

TEST(AggregateSwpTest, EmptyInput) {
  Relation rel(Schema::KeyPayload(16));
  RealMemory mm;
  HashAggTable agg(13);
  AggregateSwp(mm, rel, 4, &agg, 4);
  EXPECT_EQ(agg.num_groups(), 0u);
}

}  // namespace
}  // namespace hashjoin
