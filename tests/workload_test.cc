#include <cstring>
#include <map>
#include <set>

#include "gtest/gtest.h"
#include "hash/hash_func.h"
#include "join/join_common.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

uint32_t KeyOf(const uint8_t* t) {
  uint32_t k;
  std::memcpy(&k, t, 4);
  return k;
}

TEST(WorkloadSpecTest, ProbeCountDerivation) {
  WorkloadSpec spec;
  spec.num_build_tuples = 1000;
  spec.matches_per_build = 2.0;
  spec.build_match_fraction = 1.0;
  spec.probe_match_fraction = 1.0;
  EXPECT_EQ(spec.NumProbeTuples(), 2000u);
  spec.probe_match_fraction = 0.5;
  EXPECT_EQ(spec.NumProbeTuples(), 4000u);
  spec.build_match_fraction = 0.5;
  EXPECT_EQ(spec.NumProbeTuples(), 2000u);
}

TEST(GeneratorTest, ExactMatchCountPivot) {
  WorkloadSpec spec;
  spec.num_build_tuples = 5000;
  spec.tuple_size = 100;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  EXPECT_EQ(w.build.num_tuples(), 5000u);
  EXPECT_EQ(w.probe.num_tuples(), 10000u);
  EXPECT_EQ(w.expected_matches, 10000u);
}

TEST(GeneratorTest, BuildKeysUniqueAndDense) {
  WorkloadSpec spec;
  spec.num_build_tuples = 3000;
  spec.tuple_size = 16;
  JoinWorkload w = GenerateJoinWorkload(spec);
  std::set<uint32_t> keys;
  w.build.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t) {
    keys.insert(KeyOf(t));
  });
  EXPECT_EQ(keys.size(), 3000u);
  EXPECT_EQ(*keys.begin(), 1u);
  EXPECT_EQ(*keys.rbegin(), 3000u);
}

TEST(GeneratorTest, ProbeMatchSemantics) {
  // Every matched probe key maps to exactly one build key; unmatched
  // probe keys are outside the build range.
  WorkloadSpec spec;
  spec.num_build_tuples = 2000;
  spec.tuple_size = 16;
  spec.matches_per_build = 3.0;
  spec.probe_match_fraction = 0.75;
  JoinWorkload w = GenerateJoinWorkload(spec);
  uint64_t matched = 0;
  w.probe.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t) {
    if (KeyOf(t) <= 2000) ++matched;
  });
  EXPECT_EQ(matched, w.expected_matches);
  EXPECT_NEAR(double(matched) / double(w.probe.num_tuples()), 0.75, 0.01);
}

TEST(GeneratorTest, FractionalMatchesPerBuild) {
  WorkloadSpec spec;
  spec.num_build_tuples = 1000;
  spec.tuple_size = 16;
  spec.matches_per_build = 2.5;
  JoinWorkload w = GenerateJoinWorkload(spec);
  EXPECT_NEAR(double(w.expected_matches), 2500.0, 10.0);
}

TEST(GeneratorTest, MemoizedHashCodesAreCorrect) {
  WorkloadSpec spec;
  spec.num_build_tuples = 500;
  spec.tuple_size = 20;
  JoinWorkload w = GenerateJoinWorkload(spec);
  auto check = [](const Relation& rel) {
    rel.ForEachTuple([&](const uint8_t* t, uint16_t, uint32_t hash) {
      ASSERT_EQ(hash, HashKey32(KeyOf(t)));
    });
  };
  check(w.build);
  check(w.probe);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  WorkloadSpec spec;
  spec.num_build_tuples = 500;
  spec.tuple_size = 16;
  spec.seed = 77;
  JoinWorkload a = GenerateJoinWorkload(spec);
  JoinWorkload b = GenerateJoinWorkload(spec);
  ASSERT_EQ(a.probe.num_tuples(), b.probe.num_tuples());
  std::vector<uint32_t> ka, kb;
  a.probe.ForEachTuple(
      [&](const uint8_t* t, uint16_t, uint32_t) { ka.push_back(KeyOf(t)); });
  b.probe.ForEachTuple(
      [&](const uint8_t* t, uint16_t, uint32_t) { kb.push_back(KeyOf(t)); });
  EXPECT_EQ(ka, kb);
}

TEST(GeneratorTest, ProbeOrderIsShuffled) {
  WorkloadSpec spec;
  spec.num_build_tuples = 2000;
  spec.tuple_size = 16;
  JoinWorkload w = GenerateJoinWorkload(spec);
  // Sorted order would make hash-table visits artificially local; check
  // the sequence is not sorted.
  std::vector<uint32_t> keys;
  w.probe.ForEachTuple(
      [&](const uint8_t* t, uint16_t, uint32_t) { keys.push_back(KeyOf(t)); });
  EXPECT_FALSE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(GeneratorTest, PayloadDerivedFromKey) {
  WorkloadSpec spec;
  spec.num_build_tuples = 100;
  spec.tuple_size = 32;
  JoinWorkload w = GenerateJoinWorkload(spec);
  w.build.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    ASSERT_EQ(len, 32);
    uint8_t expect = uint8_t(KeyOf(t) * 131u + 17u);
    for (int i = 4; i < 32; ++i) ASSERT_EQ(t[i], expect);
  });
}

TEST(GeneratorTest, SourceRelationShape) {
  Relation rel = GenerateSourceRelation(5000, 60, 3);
  EXPECT_EQ(rel.num_tuples(), 5000u);
  EXPECT_EQ(rel.data_bytes(), 5000u * 60u);
}

TEST(GeneratorTest, SkewedRelationConcentratesKeys) {
  Relation rel = GenerateSkewedRelation(10000, 16, 0.99, 1000, 5);
  std::map<uint32_t, int> counts;
  rel.ForEachTuple(
      [&](const uint8_t* t, uint16_t, uint32_t) { counts[KeyOf(t)]++; });
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  // Uniform would put ~10 per key; Zipf(0.99) is far hotter at the head.
  EXPECT_GT(max_count, 200);
}

// --- TupleCursor ---

TEST(TupleCursorTest, VisitsEveryTupleAndFlagsPages) {
  Relation rel(Schema::KeyPayload(16), 512);
  for (uint32_t i = 0; i < 100; ++i) {
    uint8_t t[16] = {};
    std::memcpy(t, &i, 4);
    rel.Append(t, 16, i);
  }
  TupleCursor cur(rel);
  const SlottedPage::Slot* slot;
  const uint8_t* tuple;
  bool new_page = false;
  uint32_t count = 0;
  uint32_t pages = 0;
  while (cur.Next(&slot, &tuple, &new_page)) {
    EXPECT_EQ(KeyOf(tuple), count);
    EXPECT_EQ(slot->hash_code, count);
    if (new_page) ++pages;
    ++count;
  }
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(pages, rel.num_pages());
}

TEST(TupleCursorTest, EmptyRelation) {
  Relation rel(Schema::KeyPayload(16));
  TupleCursor cur(rel);
  const SlottedPage::Slot* slot;
  const uint8_t* tuple;
  EXPECT_FALSE(cur.Next(&slot, &tuple));
}

// --- OutputSink ---

TEST(OutputSinkTest, SpillsFullBuffersToDestination) {
  Relation dest(Schema::KeyPayload(64), 512);
  {
    OutputSink sink(&dest, dest.page_size());
    for (int i = 0; i < 40; ++i) {
      uint8_t* dst = sink.Alloc(64);
      ASSERT_NE(dst, nullptr);
      std::memset(dst, i, 64);
    }
    sink.Final();
  }
  EXPECT_EQ(dest.num_tuples(), 40u);
  int i = 0;
  dest.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    ASSERT_EQ(len, 64);
    ASSERT_EQ(t[0], uint8_t(i));
    ASSERT_EQ(t[63], uint8_t(i));
    ++i;
  });
}

TEST(OutputSinkTest, FinalOnEmptyIsNoop) {
  Relation dest(Schema::KeyPayload(64), 512);
  OutputSink sink(&dest, dest.page_size());
  sink.Final();
  EXPECT_EQ(dest.num_tuples(), 0u);
}

TEST(OutputSinkTest, PeekAddrTracksBumpPointer) {
  Relation dest(Schema::KeyPayload(32), 512);
  OutputSink sink(&dest, dest.page_size());
  const uint8_t* before = sink.PeekAddr();
  uint8_t* dst = sink.Alloc(32);
  EXPECT_EQ(dst, before);
  EXPECT_EQ(sink.PeekAddr(), before + 32);
  sink.Final();
}

}  // namespace
}  // namespace hashjoin
