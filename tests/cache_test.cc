// Tests for the cross-query hash-table cache: hit/miss/invalidate
// correctness (cached-path output byte-identical to the uncached run for
// every execution scheme), sharing the caller's build relation (or a
// copy of a relation nothing shares) and freezing it, pin-count
// discipline under concurrent probes, compile-time pin privacy,
// revoke-storm eviction ordering on a real broker grant, the
// frequency-aware eviction and admission policy (against an LRU
// reference on a replay trace), newer versions superseding older ones,
// and the broker's cache-first revocation class. Runs under TSAN via the `threaded` label and under ASAN/UBSAN
// via `cache`.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <list>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "cache/hash_table_cache.h"
#include "gtest/gtest.h"
#include "hash/hash_table.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "sched/join_scheduler.h"
#include "sched/memory_broker.h"
#include "util/budget_view.h"
#include "workload/generator.h"
#include "workload/replay.h"

namespace hashjoin {
namespace {

/// Byte-level equality of two relations: same tuple stream, same bytes.
bool RelationsIdentical(const Relation& a, const Relation& b) {
  if (a.num_tuples() != b.num_tuples()) return false;
  TupleCursor ca(a), cb(b);
  const SlottedPage::Slot* sa;
  const SlottedPage::Slot* sb;
  const uint8_t* ta;
  const uint8_t* tb;
  while (ca.Next(&sa, &ta)) {
    if (!cb.Next(&sb, &tb)) return false;
    if (sa->length != sb->length) return false;
    if (std::memcmp(ta, tb, sa->length) != 0) return false;
  }
  return !cb.Next(&sb, &tb);
}

JoinWorkload SmallWorkload(uint64_t seed, uint64_t build_tuples = 2000) {
  WorkloadSpec spec;
  spec.tuple_size = 32;
  spec.num_build_tuples = build_tuples;
  spec.matches_per_build = 1.0;
  spec.seed = seed;
  return GenerateJoinWorkload(spec);
}

/// Builds a standalone cached entry from `tuples` synthetic tuples so
/// eviction tests control sizes and benefits exactly.
bool OfferEntry(cache::HashTableCache* c, const cache::CacheKey& key,
                uint64_t tuples, double rebuild_cycles) {
  JoinWorkload w = SmallWorkload(key.relation_id * 131 + key.version,
                                 tuples);
  auto build = std::make_shared<Relation>(std::move(w.build));
  auto ht = std::make_unique<HashTable>(
      ChooseBucketCount(build->num_tuples(), 1));
  RealMemory mm;
  KernelParams params;
  BuildPartition(mm, Scheme::kBaseline, *build, ht.get(), params);
  return c->Offer(key, std::move(build), std::move(ht), rebuild_cycles);
}

// Pins are the cache's business: code outside it holds a pin only
// through the PinnedTable that Acquire() returns, so a leaked raw pin
// (an entry no revoke can reclaim) does not compile.
template <typename C>
concept CanAcquire = requires(C& c, const cache::CacheKey& key) {
  c.Acquire(key);
};
template <typename C>
concept CanPin = requires(C& c, const cache::CacheKey& key) { c.Pin(key); };
template <typename C>
concept CanUnpin = requires(C& c, const cache::CachedTable* entry) {
  c.Unpin(entry);
};
static_assert(CanAcquire<cache::HashTableCache> &&
                  !CanPin<cache::HashTableCache> &&
                  !CanUnpin<cache::HashTableCache>,
              "Pin/Unpin must be private to HashTableCache");
static_assert(!std::is_constructible_v<cache::PinnedTable,
                                       cache::HashTableCache*,
                                       const cache::CachedTable*>,
              "only HashTableCache::Acquire may make a pinned guard");
// A live budget is a pointer to an atomic, never a closure.
static_assert(std::is_trivially_copyable_v<BudgetView>,
              "BudgetView must stay a plain view");

TEST(SchemaFingerprintTest, DistinguishesLayouts) {
  JoinWorkload a = SmallWorkload(1);
  WorkloadSpec wide;
  wide.tuple_size = 64;
  wide.num_build_tuples = 100;
  JoinWorkload b = GenerateJoinWorkload(wide);
  EXPECT_EQ(cache::SchemaFingerprint(a.build.schema()),
            cache::SchemaFingerprint(a.probe.schema()));
  EXPECT_NE(cache::SchemaFingerprint(a.build.schema()),
            cache::SchemaFingerprint(b.build.schema()));
}

TEST(HashTableCacheTest, HitMissInvalidateByteIdenticalAllSchemes) {
  for (Scheme scheme : AllSchemes()) {
    SCOPED_TRACE(SchemeName(scheme));
    JoinWorkload w = SmallWorkload(7);
    const std::atomic<uint64_t> budget{64ull << 20};
    cache::HashTableCache cache{BudgetView(&budget)};
    cache::CacheKey key{1, 1, cache::SchemaFingerprint(w.build.schema())};

    GraceConfig plain;
    plain.join_scheme = scheme;
    plain.forced_num_partitions = 1;

    GraceConfig cached = plain;
    cached.table_cache = &cache;
    cached.cache_key = key;

    RealMemory mm;
    Relation out_ref(ConcatSchema(w.build.schema(), w.probe.schema()));
    JoinResult ref = GraceHashJoin(mm, w.build, w.probe, plain, &out_ref);
    EXPECT_EQ(ref.output_tuples, w.expected_matches);
    EXPECT_FALSE(ref.cache_hit);

    // Miss populates the cache; output must match the uncached run.
    Relation out_miss(ConcatSchema(w.build.schema(), w.probe.schema()));
    JoinResult miss = GraceHashJoin(mm, w.build, w.probe, cached, &out_miss);
    EXPECT_EQ(miss.output_tuples, w.expected_matches);
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_TRUE(RelationsIdentical(out_ref, out_miss));
    EXPECT_EQ(cache.stats().inserts, 1u);

    // Hit skips the build; output still byte-identical.
    Relation out_hit(ConcatSchema(w.build.schema(), w.probe.schema()));
    JoinResult hit = GraceHashJoin(mm, w.build, w.probe, cached, &out_hit);
    EXPECT_EQ(hit.output_tuples, w.expected_matches);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_TRUE(RelationsIdentical(out_ref, out_hit));
    EXPECT_EQ(cache.stats().hits, 1u);

    // Invalidate forces the next run back through the build.
    EXPECT_EQ(cache.Invalidate(key.relation_id), 1u);
    Relation out_inv(ConcatSchema(w.build.schema(), w.probe.schema()));
    JoinResult inv = GraceHashJoin(mm, w.build, w.probe, cached, &out_inv);
    EXPECT_FALSE(inv.cache_hit);
    EXPECT_TRUE(RelationsIdentical(out_ref, out_inv));
  }
}

// Relation::Append leaves each slot's hash code at 0; only the partition
// pass memoizes real ones. A hit probes the unpartitioned probe side, so
// it must hash the keys rather than trust those slots.
TEST(HashTableCacheTest, HitOnInputsWithoutMemoizedHashesMatchesMiss) {
  const Schema schema = Schema::KeyPayload(64);
  Relation build(schema);
  Relation probe(schema);
  std::vector<uint8_t> tuple(schema.fixed_size(), 0x5c);
  for (uint32_t key = 0; key < 5000; ++key) {
    std::memcpy(tuple.data(), &key, sizeof(key));
    build.Append(tuple.data(), uint16_t(tuple.size()));
    if (key % 2 == 0) probe.Append(tuple.data(), uint16_t(tuple.size()));
  }
  for (Scheme scheme : AllSchemes()) {
    SCOPED_TRACE(SchemeName(scheme));
    const std::atomic<uint64_t> budget{64ull << 20};
    cache::HashTableCache cache{BudgetView(&budget)};
    GraceConfig plain;
    plain.join_scheme = scheme;
    GraceConfig cached = plain;
    cached.table_cache = &cache;
    cached.cache_key = {1, 1, cache::SchemaFingerprint(schema)};

    RealMemory mm;
    JoinResult uncached = GraceHashJoin(mm, build, probe, plain, nullptr);
    EXPECT_EQ(uncached.output_tuples, 2500u);
    JoinResult miss = GraceHashJoin(mm, build, probe, cached, nullptr);
    EXPECT_FALSE(miss.cache_hit);
    EXPECT_EQ(miss.output_tuples, 2500u);
    JoinResult hit = GraceHashJoin(mm, build, probe, cached, nullptr);
    ASSERT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.output_tuples, 2500u);
  }
}

// A miss on a build relation a shared_ptr owns hands the cache that very
// relation: no copy is made, the entry is charged what a copy would be,
// and the cache freezes the relation.
TEST(HashTableCacheTest, MissSharesTheCallersBuildRelation) {
  JoinWorkload w = SmallWorkload(11);
  auto build = std::make_shared<const Relation>(std::move(w.build));
  const std::atomic<uint64_t> budget{64ull << 20};
  cache::HashTableCache cache{BudgetView(&budget)};
  GraceConfig cached;
  cached.table_cache = &cache;
  cached.cache_key = {5, 1, cache::SchemaFingerprint(build->schema())};

  RealMemory mm;
  JoinResult miss = GraceHashJoin(mm, *build, w.probe, cached, nullptr);
  ASSERT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.output_tuples, w.expected_matches);
  cache::PinnedTable pinned = cache.Acquire(cached.cache_key);
  ASSERT_TRUE(pinned);
  EXPECT_EQ(&pinned.build(), build.get());
  EXPECT_TRUE(build->frozen());
  EXPECT_EQ(cache.stats().charged_bytes,
            build->data_bytes() +
                HashTable::EstimateBytes(build->num_tuples()));
}

// A relation without a shared owner is copied once, before the build; the
// caller's relation stays its own and mutable, and hits stay
// byte-identical to the uncached join.
TEST(HashTableCacheTest, MissOnAStackRelationCachesACopy) {
  JoinWorkload w = SmallWorkload(12);
  const std::atomic<uint64_t> budget{64ull << 20};
  cache::HashTableCache cache{BudgetView(&budget)};
  GraceConfig plain;
  GraceConfig cached;
  cached.table_cache = &cache;
  cached.cache_key = {6, 1, cache::SchemaFingerprint(w.build.schema())};
  const Schema out_schema = ConcatSchema(w.build.schema(), w.probe.schema());

  RealMemory mm;
  Relation out_ref(out_schema);
  GraceHashJoin(mm, w.build, w.probe, plain, &out_ref);
  Relation out_miss(out_schema);
  ASSERT_FALSE(
      GraceHashJoin(mm, w.build, w.probe, cached, &out_miss).cache_hit);
  Relation out_hit(out_schema);
  ASSERT_TRUE(GraceHashJoin(mm, w.build, w.probe, cached, &out_hit).cache_hit);
  EXPECT_EQ(out_ref.num_tuples(), w.expected_matches);
  EXPECT_TRUE(RelationsIdentical(out_ref, out_miss));
  EXPECT_TRUE(RelationsIdentical(out_ref, out_hit));

  cache::PinnedTable pinned = cache.Acquire(cached.cache_key);
  ASSERT_TRUE(pinned);
  EXPECT_NE(&pinned.build(), &w.build);
  EXPECT_TRUE(RelationsIdentical(pinned.build(), w.build));
  EXPECT_TRUE(pinned.build().frozen());
  EXPECT_FALSE(w.build.frozen());
  EXPECT_EQ(cache.stats().charged_bytes,
            w.build.data_bytes() +
                HashTable::EstimateBytes(w.build.num_tuples()));
  pinned.Reset();
  w.build.Clear();  // the caller's relation is still its own
}

TEST(HashTableCacheTest, OfferChargesBuildBytesPlusTableEstimate) {
  const std::atomic<uint64_t> budget{64ull << 20};
  cache::HashTableCache cache{BudgetView(&budget)};
  JoinWorkload w = SmallWorkload(13, 3000);
  const uint64_t expected =
      w.build.data_bytes() + HashTable::EstimateBytes(w.build.num_tuples());
  ASSERT_TRUE(OfferEntry(&cache, {13, 0, 0}, 3000, 1000));
  EXPECT_EQ(cache.stats().charged_bytes, expected);
}

// Cached hash cells point into the shared relation's pages, so every
// mutator of a relation the cache shares dies instead of freeing them.
TEST(HashTableCacheDeathTest, MutatingASharedBuildRelationDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  JoinWorkload w = SmallWorkload(14);
  auto build = std::make_shared<Relation>(std::move(w.build));
  const std::atomic<uint64_t> budget{64ull << 20};
  cache::HashTableCache cache{BudgetView(&budget)};
  GraceConfig cached;
  cached.table_cache = &cache;
  cached.cache_key = {7, 1, cache::SchemaFingerprint(build->schema())};
  RealMemory mm;
  ASSERT_FALSE(GraceHashJoin(mm, *build, w.probe, cached, nullptr).cache_hit);
  ASSERT_TRUE(build->frozen());

  const std::vector<uint8_t> tuple(build->schema().fixed_size(), 0);
  Relation other(build->schema());
  EXPECT_DEATH(build->Append(tuple.data(), uint16_t(tuple.size())),
               "immutable");
  EXPECT_DEATH(build->AllocAppend(uint16_t(tuple.size()), 1), "immutable");
  EXPECT_DEATH(build->Clear(), "immutable");
  EXPECT_DEATH(other.Absorb(build.get()), "immutable");
  EXPECT_DEATH(build->Absorb(&other), "immutable");
  EXPECT_DEATH(Relation stolen(std::move(*build)), "immutable");
  EXPECT_DEATH(*build = Relation(build->schema()), "immutable");
  EXPECT_DEATH(other = std::move(*build), "immutable");
  EXPECT_EQ(build->num_tuples(), 2000u);  // the parent never mutated it
}

TEST(HashTableCacheTest, OfferRejectsDuplicatesAndOversize) {
  const std::atomic<uint64_t> budget{1ull << 20};
  cache::HashTableCache cache{BudgetView(&budget)};
  cache::CacheKey key{3, 1, 0};
  ASSERT_TRUE(OfferEntry(&cache, key, 500, 1000));
  EXPECT_FALSE(OfferEntry(&cache, key, 500, 1000));  // duplicate
  cache::CacheKey big{4, 1, 0};
  EXPECT_FALSE(OfferEntry(&cache, big, 200000, 1000));  // cannot ever fit
  EXPECT_EQ(cache.stats().rejected_inserts, 2u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(HashTableCacheTest, EvictionOrderIsLowestBenefitFirst) {
  // Three same-sized entries with increasing rebuild benefit; shrinking
  // to one entry's worth must evict the two cheapest, keeping C.
  std::atomic<uint64_t> budget{1ull << 30};
  cache::HashTableCache cache{BudgetView(&budget)};
  cache::CacheKey a{1, 1, 0}, b{2, 1, 0}, c{3, 1, 0};
  ASSERT_TRUE(OfferEntry(&cache, a, 1000, 1e3));
  ASSERT_TRUE(OfferEntry(&cache, b, 1000, 1e6));
  ASSERT_TRUE(OfferEntry(&cache, c, 1000, 1e9));
  const uint64_t occupancy = cache.stats().charged_bytes;
  budget.store(occupancy / 3 + 1);
  cache.OnRevoke();
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_GT(cache.stats().revoked_bytes, 0u);
  EXPECT_FALSE(cache.Acquire(a));
  EXPECT_FALSE(cache.Acquire(b));
  EXPECT_TRUE(cache.Acquire(c));
}

/// Charged bytes of one OfferEntry table of `tuples` tuples.
uint64_t EntryBytes(uint64_t tuples) {
  return SmallWorkload(1, tuples).build.data_bytes() +
         HashTable::EstimateBytes(tuples);
}

TEST(HashTableCacheTest, ColderNewcomerIsDeclinedUntilItsLookupsOvertake) {
  // Room for one entry. A has three lookups behind it; B, one. Evicting
  // A for B would trade a hotter table for a colder one of the same
  // size and cost, so B's offer is declined and A stays.
  const std::atomic<uint64_t> budget{EntryBytes(500) * 3 / 2};
  cache::HashTableCache cache{BudgetView(&budget)};
  const cache::CacheKey a{1, 1, 0}, b{2, 1, 0};
  ASSERT_TRUE(OfferEntry(&cache, a, 500, 1e6));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(cache.Acquire(a));
  ASSERT_FALSE(cache.Acquire(b));
  EXPECT_FALSE(OfferEntry(&cache, b, 500, 1e6));
  EXPECT_EQ(cache.stats().declined_inserts, 1u);
  EXPECT_EQ(cache.stats().rejected_inserts, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_TRUE(cache.Acquire(a));  // A's fourth lookup

  // Four more misses give B five lookups to A's four: B is admitted
  // and A evicted.
  for (int i = 0; i < 4; ++i) ASSERT_FALSE(cache.Acquire(b));
  ASSERT_TRUE(OfferEntry(&cache, b, 500, 1e6));
  EXPECT_EQ(cache.stats().declined_inserts, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Acquire(a));
  EXPECT_TRUE(cache.Acquire(b));
}

TEST(HashTableCacheTest, LookupCountSurvivesInvalidateAndVersionBump) {
  // Room for one entry. Relation 1 is asked for four times, then an
  // update invalidates it and B moves in with two lookups. Version 2 of
  // relation 1 still carries relation 1's count, so it displaces B; a
  // newcomer without that history (one lookup) would be declined.
  const std::atomic<uint64_t> budget{EntryBytes(500) * 3 / 2};
  cache::HashTableCache cache{BudgetView(&budget)};
  const cache::CacheKey a1{1, 1, 0}, a2{1, 2, 0}, b{2, 1, 0},
      cold{3, 1, 0};
  ASSERT_TRUE(OfferEntry(&cache, a1, 500, 1e6));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(cache.Acquire(a1));
  EXPECT_EQ(cache.Invalidate(1), 1u);
  ASSERT_TRUE(OfferEntry(&cache, b, 500, 1e6));
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(cache.Acquire(b));

  ASSERT_FALSE(cache.Acquire(cold));
  EXPECT_FALSE(OfferEntry(&cache, cold, 500, 1e6));
  EXPECT_EQ(cache.stats().declined_inserts, 1u);

  ASSERT_FALSE(cache.Acquire(a2));
  ASSERT_TRUE(OfferEntry(&cache, a2, 500, 1e6));
  EXPECT_TRUE(cache.Acquire(a2));
  EXPECT_FALSE(cache.Acquire(b));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(HashTableCacheTest, NewerVersionSupersedesOlderOnes) {
  // A query admitted before an update can offer its table after the
  // update's Invalidate ran. Versions only grow, so an offer invalidates
  // the older versions it finds and is rejected behind a newer one:
  // stale tables never hold room their relation's count would keep.
  const std::atomic<uint64_t> budget{1ull << 30};
  cache::HashTableCache cache{BudgetView(&budget)};
  ASSERT_TRUE(OfferEntry(&cache, {1, 1, 0}, 300, 1e6));
  ASSERT_TRUE(OfferEntry(&cache, {2, 1, 0}, 300, 1e6));
  ASSERT_TRUE(OfferEntry(&cache, {1, 3, 0}, 300, 1e6));
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_FALSE(cache.Acquire({1, 1, 0}));
  EXPECT_FALSE(OfferEntry(&cache, {1, 2, 0}, 300, 1e6));
  EXPECT_EQ(cache.stats().rejected_inserts, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  {
    // A pinned older version is doomed, and probeable until unpinned.
    cache::PinnedTable pin = cache.Acquire({1, 3, 0});
    ASSERT_TRUE(pin);
    ASSERT_TRUE(OfferEntry(&cache, {1, 4, 0}, 300, 1e6));
    EXPECT_FALSE(cache.Acquire({1, 3, 0}));
    EXPECT_GT(pin.table().num_tuples(), 0u);
  }
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_TRUE(cache.Acquire({1, 4, 0}));
  EXPECT_TRUE(cache.Acquire({2, 1, 0}));
}

TEST(HashTableCacheTest, HalvingBoundsTheLookupHistory) {
  // Every lookup names a new relation, so each halving drops every count
  // (1 / 2 = 0): the history never holds more than one period's worth.
  const std::atomic<uint64_t> budget{1ull << 30};
  cache::HashTableCache cache{BudgetView(&budget)};
  constexpr uint64_t kPeriod = cache::HashTableCache::kHalvingPeriod;
  uint64_t most = 0;
  for (uint64_t id = 1; id <= 5 * kPeriod + 7; ++id) {
    ASSERT_FALSE(cache.Acquire({id, 1, 0}));
    most = std::max(most, cache.stats().tracked_relations);
  }
  EXPECT_EQ(most, kPeriod - 1);
  EXPECT_EQ(cache.stats().tracked_relations, 7u);

  // A relation asked for on every other lookup keeps its count through
  // the halvings while the one-off relations around it are dropped: the
  // last halving falls on lookup 4088 here, and left relation 1 plus the
  // four one-off relations asked for after it.
  for (uint64_t i = 0; i < 4 * kPeriod; ++i) {
    cache.Acquire({i % 2 == 0 ? 1u : 100000 + i, 1, 0});
  }
  EXPECT_EQ(cache.stats().tracked_relations, 5u);
}

/// Hit rate of an LRU cache holding `slots` tables on `trace`; an update
/// drops the table's cached version.
double LruHitRate(const std::vector<ReplayOp>& trace, size_t slots) {
  std::list<uint32_t> recent;  // most recently used first
  uint64_t hits = 0;
  for (const ReplayOp& op : trace) {
    auto it = std::find(recent.begin(), recent.end(), op.table);
    if (it != recent.end()) {
      if (!op.is_update) ++hits;
      recent.erase(it);
    } else if (recent.size() == slots) {
      recent.pop_back();
    }
    recent.push_front(op.table);
  }
  return double(hits) / double(trace.size());
}

TEST(HashTableCacheTest, ReplayHitRateBeatsLru) {
  // The service_reuse benchmark's geometry with tiny stand-in tables:
  // 16 tables of one size and rebuild cost, room for 8, Zipf 1.0
  // popularity, 5% of queries preceded by an update. Equal sizes and
  // costs reduce GreedyDual-Size to LRU; counting lookups keeps the most
  // asked-for tables instead.
  ReplaySpec spec;
  spec.num_tables = 16;
  spec.zipf_theta = 1.0;
  spec.update_rate = 0.05;
  spec.num_queries = 4096;
  const std::vector<ReplayOp> trace = GenerateReplayTrace(spec);
  constexpr uint64_t kTuples = 64;
  const std::atomic<uint64_t> budget{8 * EntryBytes(kTuples) +
                                     EntryBytes(kTuples) / 2};
  cache::HashTableCache cache{BudgetView(&budget)};
  std::vector<uint64_t> versions(spec.num_tables, 1);
  for (const ReplayOp& op : trace) {
    const uint64_t id = op.table + 1;
    if (op.is_update) {
      ++versions[op.table];
      cache.Invalidate(id);
    }
    const cache::CacheKey key{id, versions[op.table], 0};
    if (!cache.Acquire(key)) OfferEntry(&cache, key, kTuples, 1e6);
  }
  const double lru = LruHitRate(trace, 8);
  const double hit_rate = cache.stats().HitRate();
  EXPECT_GE(hit_rate, lru + 0.03) << "LRU " << lru;
  EXPECT_EQ(cache.stats().lookups, trace.size());
  EXPECT_EQ(cache.stats().rejected_inserts, 0u);
  EXPECT_GT(cache.stats().declined_inserts, 0u);
  std::printf("replay hit rate %.4f, LRU %.4f\n", hit_rate, lru);
}

TEST(HashTableCacheTest, RevokeDefersEvictionOfPinnedEntries) {
  std::atomic<uint64_t> budget{1ull << 30};
  cache::HashTableCache cache{BudgetView(&budget)};
  cache::CacheKey key{9, 1, 0};
  ASSERT_TRUE(OfferEntry(&cache, key, 1000, 1e6));
  const uint64_t charged = cache.stats().charged_bytes;
  {
    cache::PinnedTable pin = cache.Acquire(key);
    ASSERT_TRUE(pin);
    // Revoke to zero: the pinned entry cannot go yet.
    budget.store(0);
    cache.OnRevoke();
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().revoked_bytes, 0u);
    // Still probeable while pinned (reader finishes against old table).
    EXPECT_GT(pin.table().num_tuples(), 0u);
  }
  // Last unpin completes the deferred shrink and counts the bytes.
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().revoked_bytes, charged);
}

// The two tests below land a cache call inside a revoke's window: the
// broker has stored the grant's new size but not yet called OnRevoke.
// The budget is a test-owned atomic so the window is exact.

TEST(HashTableCacheTest, RevokeRacingUnpinStillCompletesDeferredShrink) {
  // The last unpin falls inside the window, so it sees the cut before
  // OnRevoke does. It must still finish the shrink and count it as
  // revoked, and the late OnRevoke must find nothing left to do.
  std::atomic<uint64_t> budget{1ull << 30};
  cache::HashTableCache cache{BudgetView(&budget)};
  cache::CacheKey key{31, 1, 0};
  ASSERT_TRUE(OfferEntry(&cache, key, 1000, 1e6));
  const uint64_t charged = cache.stats().charged_bytes;
  {
    cache::PinnedTable pin = cache.Acquire(key);
    ASSERT_TRUE(pin);
    budget.store(0);  // the revoke is published ...
    pin.Reset();      // ... the last unpin lands ...
  }
  cache.OnRevoke();   // ... and only then the listener runs.
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().revoked_bytes, charged);
  EXPECT_EQ(cache.stats().charged_bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(HashTableCacheTest, RevokeRacingOfferIsNotAdmittedOverBudget) {
  // An offer inside the window reads the cut budget and is rejected.
  std::atomic<uint64_t> budget{1ull << 30};
  cache::HashTableCache cache{BudgetView(&budget)};
  cache::CacheKey key{32, 1, 0};
  budget.store(1);
  EXPECT_FALSE(OfferEntry(&cache, key, 1000, 1e6));
  cache.OnRevoke();
  EXPECT_EQ(cache.stats().charged_bytes, 0u);
  EXPECT_EQ(cache.stats().rejected_inserts, 1u);
  EXPECT_EQ(cache.stats().revoked_bytes, 0u);

  // After the revoke settles, the (re-grown) live budget applies again.
  budget.store(1ull << 30);
  ASSERT_TRUE(OfferEntry(&cache, key, 1000, 1e6));
  const uint64_t charged = cache.stats().charged_bytes;

  // An offer admitted just before the window is undone by the shrink
  // that follows it, so nothing stays above the cut.
  budget.store(1);
  cache.OnRevoke();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().charged_bytes, 0u);
  EXPECT_EQ(cache.stats().revoked_bytes, charged);
}

/// A kCache grant on `broker` with the cache wired to it the way
/// JoinScheduler wires its own: the cache reads the grant's budget, and
/// the grant's revoke listener calls OnRevoke.
struct CacheOnGrant {
  CacheOnGrant(MemoryBroker* broker, uint64_t min_bytes,
               uint64_t desired_bytes)
      : grant(broker
                  ->Acquire(min_bytes, desired_bytes, /*timeout_seconds=*/0,
                            GrantClass::kCache)
                  .value()),
        cache(grant->budget()) {
    grant->SetRevokeListener([this](uint64_t) { cache.OnRevoke(); });
  }

  std::unique_ptr<MemoryGrant> grant;
  cache::HashTableCache cache;
};

TEST(HashTableCacheTest, BrokerRevokeOfPinnedEntryLandsAtLastUnpin) {
  // A normal admission revokes the cache's grant down to its minimum
  // while the only entry is pinned. The shrink waits for the pin, lands
  // at the last unpin as revoked bytes, and later offers are admitted
  // only within the reduced grant.
  constexpr uint64_t kBudget = 4ull << 20;
  constexpr uint64_t kCacheMin = 32 * 1024;
  MemoryBroker broker(kBudget);
  CacheOnGrant c(&broker, kCacheMin, kBudget);
  ASSERT_EQ(c.grant->bytes(), kBudget);

  cache::CacheKey key{31, 1, 0};
  ASSERT_TRUE(OfferEntry(&c.cache, key, 1000, 1e6));
  const uint64_t charged = c.cache.stats().charged_bytes;
  ASSERT_GT(charged, kCacheMin);

  std::unique_ptr<MemoryGrant> normal;
  {
    cache::PinnedTable pin = c.cache.Acquire(key);
    ASSERT_TRUE(pin);
    auto normal_or = broker.Acquire(kBudget - kCacheMin,
                                    kBudget - kCacheMin, 0);
    ASSERT_TRUE(normal_or.ok()) << normal_or.status().ToString();
    normal = std::move(normal_or).value();
    EXPECT_EQ(c.grant->bytes(), kCacheMin);
    EXPECT_EQ(broker.cache_revoked_bytes(), kBudget - kCacheMin);
    // Pinned: the entry stays probeable and nothing is revoked yet.
    EXPECT_EQ(c.cache.stats().entries, 1u);
    EXPECT_EQ(c.cache.stats().revoked_bytes, 0u);
    EXPECT_GT(pin.table().num_tuples(), 0u);
  }
  EXPECT_EQ(c.cache.stats().entries, 0u);
  EXPECT_EQ(c.cache.stats().revoked_bytes, charged);
  EXPECT_EQ(c.cache.stats().charged_bytes, 0u);

  // The same table no longer fits the reduced grant; a small one does.
  EXPECT_FALSE(OfferEntry(&c.cache, key, 1000, 1e6));
  ASSERT_TRUE(OfferEntry(&c.cache, {32, 1, 0}, 100, 1e6));
  EXPECT_LE(c.cache.stats().charged_bytes, c.grant->bytes());
  EXPECT_EQ(c.cache.stats().rejected_inserts, 1u);

  // Releasing the normal grant re-grows the cache's budget.
  normal.reset();
  EXPECT_EQ(c.grant->bytes(), kBudget);
  EXPECT_TRUE(OfferEntry(&c.cache, key, 1000, 1e6));
}

TEST(HashTableCacheTest, PinDisciplineUnderConcurrentProbesAndUpdates) {
  JoinWorkload w = SmallWorkload(21);
  const std::atomic<uint64_t> budget{256ull << 20};
  cache::HashTableCache cache{BudgetView(&budget)};
  const uint64_t relation_id = 5;
  const uint64_t fp = cache::SchemaFingerprint(w.build.schema());
  std::atomic<uint64_t> version{1};
  ASSERT_TRUE(OfferEntry(&cache, {relation_id, 1, fp}, 1000, 1e6));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      KernelParams params;
      while (!stop.load(std::memory_order_acquire)) {
        cache::CacheKey key{relation_id,
                            version.load(std::memory_order_acquire), fp};
        cache::PinnedTable pin = cache.Acquire(key);
        if (!pin) continue;
        // Probe the pinned table; the pin keeps the entry (and its
        // build pages) alive even if an invalidation lands mid-probe.
        RealMemory mm;
        Relation out(ConcatSchema(pin.build().schema(), w.probe.schema()));
        ProbePartition(mm, Scheme::kGroup, w.probe, pin.table(),
                       pin.build().schema().fixed_size(), params, &out);
        hits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Updater: invalidate + republish a fresh version under the readers.
  for (int round = 0; round < 20; ++round) {
    const uint64_t v = version.load(std::memory_order_relaxed) + 1;
    cache.Invalidate(relation_id);
    ASSERT_TRUE(OfferEntry(&cache, {relation_id, v, fp}, 1000, 1e6));
    version.store(v, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  cache::CacheStats cs = cache.stats();
  EXPECT_EQ(cs.pinned_entries, 0u);   // every pin released
  EXPECT_EQ(cs.entries, 1u);          // only the latest version remains
  EXPECT_GE(cs.invalidations, 20u);
  EXPECT_TRUE(cache.Acquire(
      {relation_id, version.load(std::memory_order_relaxed), fp}));
}

TEST(HashTableCacheTest, DestructorChecksCleanShutdownAfterChurn) {
  // Revoke storm against a live cache: a revoker admits normal grants
  // of changing sizes on the cache's broker (each admission revokes the
  // kCache grant, each release re-grows it) while workers Offer and
  // Acquire, then a normal destruction — TSAN validates the locking, the
  // dtor validates no pin leaked.
  constexpr uint64_t kBudget = 8ull << 20;
  constexpr uint64_t kCacheMin = 64 * 1024;
  MemoryBroker broker(kBudget);
  CacheOnGrant c(&broker, kCacheMin, kBudget);
  cache::HashTableCache& cache = c.cache;
  std::atomic<bool> stop{false};
  std::unique_ptr<MemoryGrant> held;  // the revoker's current admission
  std::thread revoker([&] {
    // Leaves the cache 7, 6 and 4 MiB, then only its minimum — less than
    // the workers keep resident — and stops only after that deepest cut.
    const uint64_t kCuts[] = {1ull << 20, 2ull << 20, 4ull << 20,
                              kBudget - kCacheMin};
    for (size_t i = 0; !stop.load(std::memory_order_acquire) || i % 4 != 0;
         ++i) {
      held.reset();
      held = broker.Acquire(kCuts[i % 4], kCuts[i % 4], 0).value();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      for (uint64_t i = 0; i < 30; ++i) {
        cache::CacheKey key{uint64_t(t) * 1000 + i, 1, 0};
        OfferEntry(&cache, key, 300, double(1 + i));
        cache::PinnedTable pin = cache.Acquire(key);
        if (pin) {
          EXPECT_GT(pin.table().num_tuples(), 0u);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true, std::memory_order_release);
  revoker.join();
  EXPECT_EQ(cache.stats().pinned_entries, 0u);
  // The revoker still holds its deepest cut, and that revoke's shrink
  // has landed.
  EXPECT_EQ(c.grant->bytes(), kCacheMin);
  EXPECT_LE(cache.stats().charged_bytes, c.grant->bytes());
}

TEST(MemoryBrokerTest, CacheClassRevokedBeforeNormalGrants) {
  MemoryBroker broker(1000);
  // The cache takes (almost) everything as revocable kCache memory.
  auto cache_grant =
      broker.Acquire(100, 900, /*timeout_seconds=*/0, GrantClass::kCache);
  ASSERT_TRUE(cache_grant.ok());
  EXPECT_EQ(cache_grant.value()->bytes(), 900u);
  // A normal admission that needs revocation must drain the cache grant,
  // not touch other normal grants.
  auto normal_a = broker.Acquire(300, 300, 0);
  ASSERT_TRUE(normal_a.ok());
  auto normal_b = broker.Acquire(500, 500, 0);
  ASSERT_TRUE(normal_b.ok());
  // 100 came from free budget, 200 + 500 were cut from the cache grant;
  // the normal grant was never touched.
  EXPECT_EQ(cache_grant.value()->bytes(), 200u);
  EXPECT_EQ(normal_a.value()->bytes(), 300u);
  EXPECT_EQ(broker.cache_revoked_bytes(), 700u);
  EXPECT_EQ(broker.normal_revokes_with_cache_surplus(), 0u);

  // Released bytes re-grow normal grants before the cache class; with
  // normal_a already at its desired size, the cache gets them all.
  normal_b.value()->Release();
  EXPECT_EQ(cache_grant.value()->bytes(), 700u);
}

TEST(MemoryBrokerTest, NormalSurplusStillRevocableAfterCacheDrained) {
  MemoryBroker broker(1000);
  auto cache_grant =
      broker.Acquire(100, 200, /*timeout_seconds=*/0, GrantClass::kCache);
  ASSERT_TRUE(cache_grant.ok());
  auto normal_a = broker.Acquire(200, 800, 0);
  ASSERT_TRUE(normal_a.ok());
  // Needs 400: cache surplus (100) goes first, then normal surplus.
  auto normal_b = broker.Acquire(400, 400, 0);
  ASSERT_TRUE(normal_b.ok());
  EXPECT_EQ(cache_grant.value()->bytes(), 100u);
  EXPECT_LT(normal_a.value()->bytes(), 800u);
  EXPECT_EQ(broker.normal_revokes_with_cache_surplus(), 0u);
}

TEST(JoinSchedulerCacheTest, CacheGrantWiredAndReused) {
  JoinWorkload w = SmallWorkload(33, 4000);
  SchedulerConfig cfg;
  cfg.max_concurrent = 1;  // deterministic: second query sees the first's
  cfg.pool_threads = 2;
  cfg.memory_budget = 64ull << 20;
  cfg.cache_bytes = 32ull << 20;
  JoinScheduler sched(cfg);
  ASSERT_NE(sched.table_cache(), nullptr);

  cache::CacheKey key{1, 1, cache::SchemaFingerprint(w.build.schema())};
  std::atomic<int> hit_count{0};
  for (int q = 0; q < 3; ++q) {
    JoinRequest req;
    req.name = "q" + std::to_string(q);
    req.min_grant_bytes = 8ull << 20;
    req.desired_grant_bytes = 8ull << 20;
    req.body = [&w, key, &hit_count](QueryContext& ctx)
        -> StatusOr<uint64_t> {
      RealMemory mm;
      GraceConfig gcfg;
      gcfg.forced_num_partitions = 1;
      gcfg.table_cache = ctx.table_cache();
      gcfg.cache_key = key;
      JoinResult r = GraceHashJoin(mm, w.build, w.probe, gcfg, nullptr);
      if (r.cache_hit) hit_count.fetch_add(1, std::memory_order_relaxed);
      return r.output_tuples;
    };
    ASSERT_TRUE(sched.Submit(std::move(req)).ok());
  }
  ServiceStats stats = sched.Drain();
  EXPECT_EQ(stats.completed, 3u);
  for (const QueryStats& qs : stats.queries) {
    EXPECT_TRUE(qs.status.ok());
    EXPECT_EQ(qs.output_tuples, w.expected_matches);
  }
  EXPECT_EQ(hit_count.load(), 2);  // first misses, the rest reuse
}

TEST(ReplayTest, TraceIsDeterministicAndUpdatesBumpVersions) {
  ReplaySpec spec;
  spec.num_tables = 4;
  spec.build_tuples_per_table = 300;
  spec.probe_tuples_per_query = 100;
  spec.num_queries = 50;
  spec.update_rate = 0.3;
  std::vector<ReplayOp> t1 = GenerateReplayTrace(spec);
  std::vector<ReplayOp> t2 = GenerateReplayTrace(spec);
  ASSERT_EQ(t1.size(), t2.size());
  bool any_update = false;
  for (size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].table, t2[i].table);
    EXPECT_EQ(t1[i].is_update, t2[i].is_update);
    EXPECT_LT(t1[i].table, spec.num_tables);
    any_update |= t1[i].is_update;
  }
  EXPECT_TRUE(any_update);

  ReplayCatalog catalog(spec);
  const uint64_t v0 = catalog.version(0);
  std::shared_ptr<const Relation> old_build = catalog.build(0);
  catalog.Update(0);
  EXPECT_EQ(catalog.version(0), v0 + 1);
  EXPECT_NE(catalog.build(0).get(), old_build.get());
  // Old snapshot stays valid for in-flight readers.
  EXPECT_EQ(old_build->num_tuples(), spec.build_tuples_per_table);
  EXPECT_EQ(catalog.expected_matches(0), spec.probe_tuples_per_query);
}

TEST(RebuildCostTest, EstimateGrowsWithTuples) {
  const double small = cache::HashTableCache::EstimateRebuildCycles(1000);
  const double big = cache::HashTableCache::EstimateRebuildCycles(100000);
  EXPECT_GT(small, 0);
  EXPECT_GT(big, small);
}

}  // namespace
}  // namespace hashjoin
