#include <cstring>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

uint32_t KeyOf(const uint8_t* tuple) {
  uint32_t k;
  std::memcpy(&k, tuple, 4);
  return k;
}

// ---------- build kernels ----------

class BuildSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(BuildSchemeTest, TableMatchesBaselineOracle) {
  WorkloadSpec spec;
  spec.num_build_tuples = 5000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);

  RealMemory mm;
  KernelParams params;
  params.group_size = 8;
  params.prefetch_distance = 2;

  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildPartition(mm, GetParam(), w.build, &ht, params);
  EXPECT_EQ(ht.num_tuples(), w.build.num_tuples());
  EXPECT_EQ(ht.CountTuplesSlow(), w.build.num_tuples());

  // Every build key must be findable with exactly one exact match.
  w.build.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t hash) {
    uint32_t key = KeyOf(t);
    int exact = 0;
    ht.Probe(hash, [&](const uint8_t* bt) {
      if (KeyOf(bt) == key) ++exact;
    });
    ASSERT_EQ(exact, 1) << "key " << key;
  });

  // No bucket may be left owned (conflict protocol must release).
  for (uint64_t b = 0; b < ht.num_buckets(); ++b) {
    ASSERT_EQ(ht.bucket(b)->owner, 0u) << "bucket " << b;
  }
}

TEST_P(BuildSchemeTest, SkewedKeysExerciseConflicts) {
  // Heavy duplicates: many tuples of one group hash to the same bucket,
  // triggering the busy-bucket protocols (§4.4 / §5.3).
  Relation rel = GenerateSkewedRelation(4000, 16, 0.99, 50, 3);
  RealMemory mm;
  KernelParams params;
  params.group_size = 16;
  params.prefetch_distance = 4;
  HashTable ht(97);
  BuildPartition(mm, GetParam(), rel, &ht, params);
  EXPECT_EQ(ht.num_tuples(), rel.num_tuples());
  EXPECT_EQ(ht.CountTuplesSlow(), rel.num_tuples());

  // Per-key multiplicity must match the input exactly.
  std::map<uint32_t, int> expected;
  rel.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t) {
    expected[KeyOf(t)]++;
  });
  for (auto& [key, count] : expected) {
    int got = 0;
    ht.Probe(HashKey32(key), [&](const uint8_t* bt) {
      if (KeyOf(bt) == key) ++got;
    });
    ASSERT_EQ(got, count) << "key " << key;
  }
}

TEST_P(BuildSchemeTest, AllDuplicateKeysSingleBucket) {
  // Worst case: every tuple conflicts.
  Schema schema = Schema::KeyPayload(16);
  Relation rel(schema);
  for (int i = 0; i < 500; ++i) {
    uint8_t t[16] = {};
    uint32_t key = 7;
    std::memcpy(t, &key, 4);
    rel.Append(t, 16, HashKey32(key));
  }
  RealMemory mm;
  KernelParams params;
  params.group_size = 19;
  params.prefetch_distance = 3;
  HashTable ht(13);
  BuildPartition(mm, GetParam(), rel, &ht, params);
  EXPECT_EQ(ht.CountTuplesSlow(), 500u);
}

TEST_P(BuildSchemeTest, EmptyInputIsFine) {
  Relation rel(Schema::KeyPayload(16));
  RealMemory mm;
  HashTable ht(13);
  BuildPartition(mm, GetParam(), rel, &ht, KernelParams{});
  EXPECT_EQ(ht.num_tuples(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, BuildSchemeTest,
                         ::testing::Values(Scheme::kBaseline, Scheme::kSimple,
                                           Scheme::kGroup, Scheme::kSwp,
                                           Scheme::kCoro),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

// ---------- probe kernels ----------

struct ProbeCase {
  Scheme scheme;
  uint32_t group_size;
  uint32_t prefetch_distance;
};

class ProbeSchemeTest : public ::testing::TestWithParam<ProbeCase> {};

TEST_P(ProbeSchemeTest, OutputMatchesExpectedExactly) {
  WorkloadSpec spec;
  spec.num_build_tuples = 3000;
  spec.tuple_size = 24;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.8;
  JoinWorkload w = GenerateJoinWorkload(spec);

  RealMemory mm;
  KernelParams params;
  params.group_size = GetParam().group_size;
  params.prefetch_distance = GetParam().prefetch_distance;

  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildBaseline(mm, w.build, &ht, params);

  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
  uint64_t n = ProbePartition(mm, GetParam().scheme, w.probe, ht,
                              spec.tuple_size, params, &out);
  EXPECT_EQ(n, w.expected_matches);
  EXPECT_EQ(out.num_tuples(), w.expected_matches);

  // Every output tuple must carry equal build and probe keys and the
  // payload bytes generated for that key.
  out.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    ASSERT_EQ(len, 2 * spec.tuple_size);
    uint32_t bkey = KeyOf(t);
    uint32_t pkey = KeyOf(t + spec.tuple_size);
    ASSERT_EQ(bkey, pkey);
    uint8_t expect = uint8_t(bkey * 131u + 17u);
    ASSERT_EQ(t[4], expect);
    ASSERT_EQ(t[spec.tuple_size + 4], expect);
  });
}

TEST_P(ProbeSchemeTest, ZeroMatchesWhenDisjoint) {
  WorkloadSpec spec;
  spec.num_build_tuples = 1000;
  spec.tuple_size = 16;
  JoinWorkload w = GenerateJoinWorkload(spec);
  // Probe with the *build* relation against an empty table later; here
  // build a table from build keys but probe with keys beyond the range.
  Relation probe(Schema::KeyPayload(16));
  for (uint32_t i = 0; i < 500; ++i) {
    uint8_t t[16] = {};
    uint32_t key = 10'000'000 + i;
    std::memcpy(t, &key, 4);
    probe.Append(t, 16, HashKey32(key));
  }
  RealMemory mm;
  KernelParams params;
  params.group_size = GetParam().group_size;
  params.prefetch_distance = GetParam().prefetch_distance;
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildBaseline(mm, w.build, &ht, params);
  Relation out(ConcatSchema(w.build.schema(), probe.schema()));
  EXPECT_EQ(ProbePartition(mm, GetParam().scheme, probe, ht, 16, params,
                           &out),
            0u);
}

TEST_P(ProbeSchemeTest, ManyMatchesPerProbeOverflowPath) {
  // One build key duplicated far beyond the candidate buffer forces the
  // overflow rescan path.
  Schema schema = Schema::KeyPayload(16);
  Relation build(schema);
  uint32_t key = 99;
  for (int i = 0; i < 20; ++i) {
    uint8_t t[16] = {};
    std::memcpy(t, &key, 4);
    build.Append(t, 16, HashKey32(key));
  }
  Relation probe(schema);
  for (int i = 0; i < 7; ++i) {
    uint8_t t[16] = {};
    std::memcpy(t, &key, 4);
    probe.Append(t, 16, HashKey32(key));
  }
  RealMemory mm;
  KernelParams params;
  params.group_size = GetParam().group_size;
  params.prefetch_distance = GetParam().prefetch_distance;
  HashTable ht(7);
  BuildBaseline(mm, build, &ht, params);
  Relation out(ConcatSchema(schema, schema));
  EXPECT_EQ(ProbePartition(mm, GetParam().scheme, probe, ht, 16, params,
                           &out),
            7u * 20u);
}

TEST_P(ProbeSchemeTest, EmptyProbeInput) {
  Schema schema = Schema::KeyPayload(16);
  Relation build(schema);
  uint8_t t[16] = {};
  build.Append(t, 16, HashKey32(0));
  Relation probe(schema);
  RealMemory mm;
  HashTable ht(7);
  KernelParams params;
  params.group_size = GetParam().group_size;
  params.prefetch_distance = GetParam().prefetch_distance;
  BuildBaseline(mm, build, &ht, params);
  Relation out(ConcatSchema(schema, schema));
  EXPECT_EQ(ProbePartition(mm, GetParam().scheme, probe, ht, 16, params,
                           &out),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndParams, ProbeSchemeTest,
    ::testing::Values(ProbeCase{Scheme::kBaseline, 1, 1},
                      ProbeCase{Scheme::kSimple, 1, 1},
                      ProbeCase{Scheme::kGroup, 1, 1},
                      ProbeCase{Scheme::kGroup, 2, 1},
                      ProbeCase{Scheme::kGroup, 19, 1},
                      ProbeCase{Scheme::kGroup, 97, 1},
                      ProbeCase{Scheme::kSwp, 1, 1},
                      ProbeCase{Scheme::kSwp, 1, 2},
                      ProbeCase{Scheme::kSwp, 1, 7},
                      ProbeCase{Scheme::kSwp, 1, 32},
                      ProbeCase{Scheme::kCoro, 1, 1},
                      ProbeCase{Scheme::kCoro, 2, 1},
                      ProbeCase{Scheme::kCoro, 19, 1},
                      ProbeCase{Scheme::kCoro, 97, 1}),
    [](const auto& info) {
      return std::string(SchemeName(info.param.scheme)) + "_g" +
             std::to_string(info.param.group_size) + "_d" +
             std::to_string(info.param.prefetch_distance);
    });

// ---------- partition kernels ----------

class PartitionSchemeTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(PartitionSchemeTest, PreservesEveryTupleInRightPartition) {
  Relation input = GenerateSourceRelation(20000, 20, 17);
  const uint32_t P = 13;
  std::vector<Relation> parts;
  for (uint32_t p = 0; p < P; ++p) {
    parts.emplace_back(input.schema(), 1024);
  }
  RealMemory mm;
  KernelParams params;
  params.group_size = 10;
  params.prefetch_distance = 3;
  {
    PartitionSinkSet sinks(&parts, 1024);
    PartitionRelation(mm, GetParam(), input, &sinks, P, params);
  }

  uint64_t total = 0;
  std::map<uint32_t, int> in_counts, out_counts;
  input.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t) {
    in_counts[KeyOf(t)]++;
  });
  for (uint32_t p = 0; p < P; ++p) {
    parts[p].ForEachTuple([&](const uint8_t* t, uint16_t len,
                              uint32_t hash) {
      ASSERT_EQ(len, 20);
      uint32_t key = KeyOf(t);
      // Memoized hash codes must be correct and route to this partition.
      ASSERT_EQ(hash, HashKey32(key));
      ASSERT_EQ(hash % P, p);
      // Payload integrity.
      ASSERT_EQ(t[4], uint8_t(key * 131u + 17u));
      out_counts[key]++;
      ++total;
    });
  }
  EXPECT_EQ(total, input.num_tuples());
  EXPECT_EQ(in_counts, out_counts);
}

TEST_P(PartitionSchemeTest, SinglePartitionDegenerate) {
  Relation input = GenerateSourceRelation(3000, 32, 5);
  std::vector<Relation> parts;
  parts.emplace_back(input.schema(), 2048);
  RealMemory mm;
  {
    PartitionSinkSet sinks(&parts, 2048);
    PartitionRelation(mm, GetParam(), input, &sinks, 1, KernelParams{});
  }
  EXPECT_EQ(parts[0].num_tuples(), input.num_tuples());
}

TEST_P(PartitionSchemeTest, ManyPartitionsFewTuples) {
  Relation input = GenerateSourceRelation(50, 16, 9);
  const uint32_t P = 97;
  std::vector<Relation> parts;
  for (uint32_t p = 0; p < P; ++p) parts.emplace_back(input.schema(), 512);
  RealMemory mm;
  {
    PartitionSinkSet sinks(&parts, 512);
    PartitionRelation(mm, GetParam(), input, &sinks, P, KernelParams{});
  }
  uint64_t total = 0;
  for (auto& p : parts) total += p.num_tuples();
  EXPECT_EQ(total, 50u);
}

TEST_P(PartitionSchemeTest, SkewedInputFloodsOnePartition) {
  // All tuples share few keys: output buffers of hot partitions fill
  // constantly, exercising the full-page conflict protocols (§6).
  Relation input = GenerateSkewedRelation(10000, 20, 1.1, 4, 23);
  const uint32_t P = 5;
  std::vector<Relation> parts;
  for (uint32_t p = 0; p < P; ++p) parts.emplace_back(input.schema(), 512);
  RealMemory mm;
  KernelParams params;
  params.group_size = 32;  // larger than tuples per 512B page
  params.prefetch_distance = 8;
  {
    PartitionSinkSet sinks(&parts, 512);
    PartitionRelation(mm, GetParam(), input, &sinks, P, params);
  }
  uint64_t total = 0;
  std::map<uint32_t, int> in_counts, out_counts;
  input.ForEachTuple(
      [&](const uint8_t* t, uint16_t, uint32_t) { in_counts[KeyOf(t)]++; });
  for (uint32_t p = 0; p < P; ++p) {
    parts[p].ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t h) {
      ASSERT_EQ(h % P, p);
      out_counts[KeyOf(t)]++;
      ++total;
    });
  }
  EXPECT_EQ(total, input.num_tuples());
  EXPECT_EQ(in_counts, out_counts);
}

TEST_P(PartitionSchemeTest, VariableLengthTuplesSurvive) {
  // Mixed tuple lengths (the slotted pages and partition copy paths are
  // length-driven, §7.1 "fixed length and variable length attributes").
  Relation input(Schema::KeyPayload(16), 1024);
  Rng rng(47);
  for (uint32_t i = 0; i < 5000; ++i) {
    uint16_t len = uint16_t(8 + rng.NextBounded(120));
    std::vector<uint8_t> t(len, uint8_t(len));
    std::memcpy(t.data(), &i, 4);
    input.Append(t.data(), len, HashKey32(i));
  }
  const uint32_t P = 7;
  std::vector<Relation> parts;
  for (uint32_t p = 0; p < P; ++p) parts.emplace_back(input.schema(), 1024);
  RealMemory mm;
  KernelParams params;
  params.group_size = 16;
  params.prefetch_distance = 4;
  {
    PartitionSinkSet sinks(&parts, 1024);
    PartitionRelation(mm, GetParam(), input, &sinks, P, params);
  }
  uint64_t total = 0;
  uint64_t bytes = 0;
  for (uint32_t p = 0; p < P; ++p) {
    parts[p].ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t h) {
      ASSERT_EQ(h % P, p);
      ASSERT_EQ(t[5], uint8_t(len));  // payload byte encodes the length
      ++total;
      bytes += len;
    });
  }
  EXPECT_EQ(total, input.num_tuples());
  EXPECT_EQ(bytes, input.data_bytes());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionSchemeTest,
                         ::testing::Values(Scheme::kBaseline, Scheme::kSimple,
                                           Scheme::kGroup, Scheme::kSwp,
                                           Scheme::kCoro),
                         [](const auto& info) {
                           return SchemeName(info.param);
                         });

// ---------- full GRACE join ----------

struct GraceCase {
  Scheme scheme;
  GraceConfig::CacheMode cache_mode;
};

class GraceJoinTest : public ::testing::TestWithParam<GraceCase> {};

TEST_P(GraceJoinTest, EndToEndCountsMatch) {
  WorkloadSpec spec;
  spec.num_build_tuples = 20000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.75;
  JoinWorkload w = GenerateJoinWorkload(spec);

  GraceConfig config;
  config.memory_budget = 200 * 1024;  // force multiple partitions
  config.cache_budget = 32 * 1024;
  config.partition_scheme = GetParam().scheme;
  config.join_scheme = GetParam().scheme;
  config.cache_mode = GetParam().cache_mode;
  config.combined_partition = false;
  config.page_size = 2048;
  config.join_params.group_size = 8;
  config.join_params.prefetch_distance = 2;
  config.partition_params = config.join_params;

  RealMemory mm;
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()), 2048);
  JoinResult r = GraceHashJoin(mm, w.build, w.probe, config, &out);

  EXPECT_EQ(r.output_tuples, w.expected_matches);
  EXPECT_EQ(out.num_tuples(), w.expected_matches);
  EXPECT_GT(r.num_partitions, 1u);

  // Output correctness: keys equal on both sides.
  out.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    ASSERT_EQ(len, 2 * spec.tuple_size);
    ASSERT_EQ(KeyOf(t), KeyOf(t + spec.tuple_size));
  });
}

TEST_P(GraceJoinTest, NullOutputStillCounts) {
  WorkloadSpec spec;
  spec.num_build_tuples = 5000;
  spec.tuple_size = 16;
  JoinWorkload w = GenerateJoinWorkload(spec);
  GraceConfig config;
  config.memory_budget = 100 * 1024;
  config.cache_budget = 32 * 1024;
  config.partition_scheme = GetParam().scheme;
  config.join_scheme = GetParam().scheme;
  config.cache_mode = GetParam().cache_mode;
  config.page_size = 2048;
  RealMemory mm;
  JoinResult r = GraceHashJoin(mm, w.build, w.probe, config, nullptr);
  EXPECT_EQ(r.output_tuples, w.expected_matches);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GraceJoinTest,
    ::testing::Values(
        GraceCase{Scheme::kBaseline, GraceConfig::CacheMode::kNone},
        GraceCase{Scheme::kSimple, GraceConfig::CacheMode::kNone},
        GraceCase{Scheme::kGroup, GraceConfig::CacheMode::kNone},
        GraceCase{Scheme::kSwp, GraceConfig::CacheMode::kNone},
        GraceCase{Scheme::kGroup, GraceConfig::CacheMode::kDirect},
        GraceCase{Scheme::kGroup, GraceConfig::CacheMode::kTwoStep},
        GraceCase{Scheme::kBaseline, GraceConfig::CacheMode::kDirect},
        GraceCase{Scheme::kBaseline, GraceConfig::CacheMode::kTwoStep},
        GraceCase{Scheme::kCoro, GraceConfig::CacheMode::kNone},
        GraceCase{Scheme::kCoro, GraceConfig::CacheMode::kDirect}),
    [](const auto& info) {
      std::string name = SchemeName(info.param.scheme);
      switch (info.param.cache_mode) {
        case GraceConfig::CacheMode::kNone:
          name += "_grace";
          break;
        case GraceConfig::CacheMode::kDirect:
          name += "_directcache";
          break;
        case GraceConfig::CacheMode::kTwoStep:
          name += "_twostepcache";
          break;
      }
      return name;
    });

// ---------- simulated-memory integration ----------

TEST(SimIntegrationTest, GroupPrefetchingBeatsBaselineInSimulator) {
  WorkloadSpec spec;
  spec.num_build_tuples = 20000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);

  auto run = [&](Scheme scheme) {
    sim::SimConfig cfg;  // full Table-2 machine
    sim::MemorySim simulator(cfg);
    SimMemory mm(&simulator);
    KernelParams params;
    params.group_size = 19;
    params.prefetch_distance = 2;
    HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
    BuildPartition(mm, scheme, w.build, &ht, params);
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
    uint64_t n = ProbePartition(mm, scheme, w.probe, ht, spec.tuple_size,
                                params, &out);
    EXPECT_EQ(n, w.expected_matches);
    return simulator.stats();
  };

  sim::SimStats base = run(Scheme::kBaseline);
  sim::SimStats group = run(Scheme::kGroup);
  sim::SimStats swp = run(Scheme::kSwp);

  // The headline result: 2-3X in the simulator for the join phase.
  EXPECT_GT(base.TotalCycles(), group.TotalCycles() * 3 / 2);
  EXPECT_GT(base.TotalCycles(), swp.TotalCycles() * 3 / 2);
  // Baseline is stall-dominated (paper: 73%+).
  EXPECT_GT(base.dcache_stall_cycles, base.TotalCycles() / 2);
  // Prefetching hides most data-cache stalls.
  EXPECT_LT(group.dcache_stall_cycles, base.dcache_stall_cycles / 3);
}

TEST(SimIntegrationTest, CycleBucketsPartitionTotal) {
  WorkloadSpec spec;
  spec.num_build_tuples = 3000;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);
  sim::MemorySim simulator{sim::SimConfig{}};
  SimMemory mm(&simulator);
  GraceConfig config;
  config.memory_budget = 256 * 1024;
  config.page_size = 2048;
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()), 2048);
  GraceHashJoin(mm, w.build, w.probe, config, &out);
  sim::SimStats s = simulator.stats();
  EXPECT_EQ(s.TotalCycles(), simulator.now());
  EXPECT_GT(s.busy_cycles, 0u);
}

}  // namespace
}  // namespace hashjoin
