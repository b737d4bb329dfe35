#ifndef HASHJOIN_CACHE_HASH_TABLE_CACHE_H_
#define HASHJOIN_CACHE_HASH_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hash/hash_table.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "util/budget_view.h"
#include "util/fields.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hashjoin {
namespace cache {

/// Identity of a cached build-side hash table. Two queries may reuse one
/// table only if all three components agree:
///  - `relation_id`: the catalog identity of the build relation,
///  - `version`: bumped by every update to that relation — an update
///    invalidates all older versions,
///  - `fingerprint`: a hash of the build-side schema and any predicate
///    applied before the build, so a filtered build never masquerades as
///    the unfiltered one (SchemaFingerprint() covers the schema part;
///    callers fold predicate digests in themselves).
struct CacheKey {
  uint64_t relation_id = 0;
  uint64_t version = 0;
  uint64_t fingerprint = 0;

  bool operator==(const CacheKey& o) const {
    return relation_id == o.relation_id && version == o.version &&
           fingerprint == o.fingerprint;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    uint64_t h = k.relation_id * 0x9e3779b97f4a7c15ULL;
    h ^= k.version + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= k.fingerprint + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return size_t(h);
  }
};

/// Fingerprint of a build-side tuple layout, for CacheKey::fingerprint.
/// Covers attribute count, types, lengths, and offsets — two schemas
/// that would place or interpret any byte differently fingerprint
/// differently.
uint64_t SchemaFingerprint(const Schema& schema);

/// One cached table: the hash table plus shared ownership of the build
/// relation it indexes. HashCell::tuple pointers point INTO the build
/// relation's pages, so the relation must stay alive and unchanged as
/// long as the table: the shared_ptr makes that a single lifetime, and
/// Offer freezes the relation so no co-owner can mutate or move it. The
/// relation is often the catalog's own (a join shares the caller's
/// shared_ptr rather than copying). A catalog that updates a relation
/// swaps in a fresh Relation and bumps the version — in-flight pins of
/// the old version keep the old pages valid.
struct CachedTable {
  CacheKey key;
  std::shared_ptr<const Relation> build;
  std::unique_ptr<HashTable> table;
  /// Bytes this entry is charged against the cache's capacity: the
  /// build relation's data plus HashTable::EstimateBytes.
  uint64_t charged_bytes = 0;
  /// Estimated cycles to rebuild the table (eviction benefit).
  double rebuild_cycles = 0;

  // --- cache-private bookkeeping (guarded by the cache's mu_) ---
  uint64_t pins = 0;
  bool doomed = false;  ///< invalidated/revoked while pinned; free at unpin
  double priority = 0;  ///< GreedyDual-Size-Frequency H-value
};

/// Counters describing one cache's lifetime, snapshot under the lock.
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  /// Offer() dropped: too big, a duplicate, older than a resident
  /// version of its relation, or room held by pins.
  uint64_t rejected_inserts = 0;
  /// Offer() dropped because making room would evict a table worth more.
  uint64_t declined_inserts = 0;
  uint64_t evictions = 0;         ///< capacity-pressure removals
  /// Entries removed by Invalidate(), or by an Offer of a newer version.
  uint64_t invalidations = 0;
  uint64_t revoked_bytes = 0;     ///< bytes released because of revokes
  uint64_t charged_bytes = 0;     ///< current occupancy
  uint64_t entries = 0;
  uint64_t pinned_entries = 0;
  /// Relations the lookup-frequency history holds a count for.
  uint64_t tracked_relations = 0;

  double HitRate() const {
    return lookups == 0 ? 0.0 : double(hits) / double(lookups);
  }

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("hit_rate", &CacheStats::HitRate);
    v("lookups", &CacheStats::lookups);
    v("hits", &CacheStats::hits);
    v("misses", &CacheStats::misses);
    v("inserts", &CacheStats::inserts);
    v("rejected_inserts", &CacheStats::rejected_inserts);
    v("declined_inserts", &CacheStats::declined_inserts);
    v("evictions", &CacheStats::evictions);
    v("invalidations", &CacheStats::invalidations);
    v("revoked_bytes", &CacheStats::revoked_bytes);
    v("charged_bytes", &CacheStats::charged_bytes, fields::Kind::kLevel);
    v("entries", &CacheStats::entries, fields::Kind::kLevel);
    v("pinned_entries", &CacheStats::pinned_entries, fields::Kind::kLevel);
    v("tracked_relations", &CacheStats::tracked_relations,
      fields::Kind::kLevel);
  }
};

class HashTableCache;

/// RAII pin guard: holds one pin on a cached table and releases it on
/// destruction. Only HashTableCache::Acquire() makes a pinned guard, and
/// Pin()/Unpin() are private to the cache, so join code cannot hold a
/// pin any other way — a leaked pin (an entry no revoke can reclaim) is
/// unrepresentable.
class PinnedTable {
 public:
  PinnedTable() = default;
  ~PinnedTable() { Reset(); }

  PinnedTable(PinnedTable&& o) noexcept
      : cache_(o.cache_), entry_(o.entry_) {
    o.cache_ = nullptr;
    o.entry_ = nullptr;
  }
  PinnedTable& operator=(PinnedTable&& o) noexcept {
    if (this != &o) {
      Reset();
      cache_ = o.cache_;
      entry_ = o.entry_;
      o.cache_ = nullptr;
      o.entry_ = nullptr;
    }
    return *this;
  }
  PinnedTable(const PinnedTable&) = delete;
  PinnedTable& operator=(const PinnedTable&) = delete;

  explicit operator bool() const { return entry_ != nullptr; }
  const HashTable& table() const { return *entry_->table; }
  const Relation& build() const { return *entry_->build; }

  /// Drops the pin early (idempotent).
  void Reset();

 private:
  friend class HashTableCache;
  /// Adopts the pin Pin() took on `entry` (nullptr = miss).
  PinnedTable(HashTableCache* cache, const CachedTable* entry)
      : cache_(cache), entry_(entry) {}

  HashTableCache* cache_ = nullptr;
  const CachedTable* entry_ = nullptr;
};

/// Cross-query cache of built hash tables, sized by revocable memory.
///
/// Capacity: a broker grant's live budget (a BudgetView), which makes
/// the cache an ordinary broker client. OnRevoke() is the grant's revoke
/// listener: it evicts unpinned entries (lowest benefit first) until
/// occupancy fits the shrunken grant, tallying `revoked_bytes`. Pinned
/// entries cannot be evicted mid-probe; they are marked doomed and freed
/// at the last Unpin, so a revoke's full effect lands as soon as probes
/// drain.
///
/// The budget is read under mu_, inside the critical section that acts
/// on it: reading a BudgetView is one atomic load and takes no lock. The
/// broker stores a revoke's new size into the grant before it calls
/// OnRevoke, and OnRevoke takes mu_ and reads the budget again — so an
/// Offer or Unpin that read the budget just before a revoke is corrected
/// by the shrink that follows it.
///
/// Eviction is GreedyDual-Size-Frequency: each entry carries
/// H = L + f * rebuild_cycles / bytes, where L is the inflation floor
/// (the H of the last eviction) and f counts lookups of the entry's
/// relation_id. The count outlives the entry: invalidations, version
/// bumps and evictions keep it, so a hot table that an update replaced
/// comes back at its old rank. Every kHalvingPeriod lookups all counts
/// are halved and zeros dropped, which bounds the history and lets
/// popularity shift. A hit refreshes H; an Offer no lookup preceded
/// counts f = 1. With equal sizes and rebuild costs this keeps the most
/// asked-for tables, where plain GreedyDual-Size keeps the most recent.
///
/// Admission: an Offer that could only make room by evicting an
/// unpinned entry whose H exceeds the newcomer's is declined
/// (`declined_inserts`), so one cold query cannot displace a hot table.
/// Versions only grow, so an Offer also invalidates the older versions
/// of its relation and is rejected behind a newer one: a query admitted
/// before an update, offering after it, cannot park a stale table that
/// its relation's count would rank high. Revoke shrinks evict the lowest
/// H first, whatever the newcomer.
///
/// All methods are thread-safe.
class HashTableCache {
 public:
  /// A cache sized by `budget` (a broker grant's, or any atomic that
  /// outlives the cache). Whoever lowers the budget calls OnRevoke
  /// afterwards — for a grant, its revoke listener.
  explicit HashTableCache(BudgetView budget);
  ~HashTableCache();

  HashTableCache(const HashTableCache&) = delete;
  HashTableCache& operator=(const HashTableCache&) = delete;

  /// Looks up `key` and pins the entry (wrapped in the RAII guard).
  /// An empty guard means miss. Counts one lookup either way.
  PinnedTable Acquire(const CacheKey& key) HJ_EXCLUDES(mu_);

  /// Offers a freshly built table for caching. Takes ownership on
  /// success (returns true) and freezes `build` (Relation::Freeze); the
  /// entry is charged build->data_bytes() plus HashTable::EstimateBytes.
  /// Rejects duplicates of an existing key, tables older than a resident
  /// version of their relation, tables that cannot fit even an empty
  /// cache, and tables only pinned entries could make room for; declines
  /// tables whose room would cost an entry with a higher H. Invalidates
  /// the relation's older versions, as an update would have.
  /// `rebuild_cycles` is the eviction benefit; pass 0 to use the model
  /// estimate (EstimateRebuildCycles) for the table's tuple count.
  bool Offer(const CacheKey& key, std::shared_ptr<const Relation> build,
             std::unique_ptr<HashTable> table, double rebuild_cycles = 0)
      HJ_EXCLUDES(mu_);

  /// Drops every version of `relation_id` (an update made them stale).
  /// Pinned entries are doomed — readers mid-probe finish against the
  /// old version, then the entry is freed. Returns entries affected.
  uint64_t Invalidate(uint64_t relation_id) HJ_EXCLUDES(mu_);

  /// Revoke listener body for the cache's grant: evicts down to the
  /// budget as it reads now, so notifications that arrive out of order
  /// or after a re-grow are harmless. Safe from any thread; bytes
  /// evicted here (and at unpin while shrinking) count as
  /// `revoked_bytes`.
  void OnRevoke() HJ_EXCLUDES(mu_);

  CacheStats stats() const HJ_EXCLUDES(mu_);

  /// Model-based rebuild-cost estimate: critical-path cycles of the
  /// build loop at the cost model's chosen group size (the same
  /// model::ChooseParams machinery that picks kernel parameters).
  static double EstimateRebuildCycles(uint64_t tuples);

  /// Lookups between two halvings of the frequency history.
  static constexpr uint32_t kHalvingPeriod = 1024;

 private:
  friend class PinnedTable;

  struct KeyPtrHash {
    size_t operator()(const CacheKey& k) const { return CacheKeyHash()(k); }
  };

  /// Returns the entry with one pin held, or nullptr on miss. Only
  /// Acquire() calls it, handing the pin to a PinnedTable.
  const CachedTable* Pin(const CacheKey& key) HJ_EXCLUDES(mu_);

  /// Releases one pin (PinnedTable::Reset). Frees the entry if it was
  /// doomed (invalidated or revoked while pinned) and this was the last
  /// pin.
  void Unpin(const CachedTable* entry) HJ_EXCLUDES(mu_);

  /// Counts one lookup of `relation_id` in the frequency history,
  /// halving the history every kHalvingPeriod lookups.
  void CountLookupLocked(uint64_t relation_id) HJ_REQUIRES(mu_);

  /// H for an entry of `relation_id` accessed now.
  double PriorityLocked(uint64_t relation_id, double rebuild_cycles,
                        uint64_t bytes) const HJ_REQUIRES(mu_);

  /// Unpinned entries, lowest H (first to evict) first.
  std::vector<CachedTable*> EvictionOrderLocked() HJ_REQUIRES(mu_);

  /// Evicts `victim` (unpinned), raising the inflation floor to its H.
  void EvictLocked(CachedTable* victim, bool from_revoke) HJ_REQUIRES(mu_);

  /// Evicts until occupancy fits `capacity` (or everything left is
  /// pinned), counting the bytes as revoked.
  void ShrinkLocked(uint64_t capacity) HJ_REQUIRES(mu_);

  /// Whether a live entry holds a newer version of key's relation.
  bool NewerVersionLocked(const CacheKey& key) const HJ_REQUIRES(mu_);

  /// Invalidate()'s body for the versions of `relation_id` below
  /// `below_version`, or for all of them. Returns entries affected.
  uint64_t InvalidateLocked(uint64_t relation_id,
                            std::optional<uint64_t> below_version)
      HJ_REQUIRES(mu_);

  void EraseLocked(const CacheKey& key) HJ_REQUIRES(mu_);

  const BudgetView budget_;
  mutable Mutex mu_;
  std::unordered_map<CacheKey, std::unique_ptr<CachedTable>, KeyPtrHash>
      entries_ HJ_GUARDED_BY(mu_);
  uint64_t charged_bytes_ HJ_GUARDED_BY(mu_) = 0;
  /// GreedyDual inflation floor: H of the last evicted entry.
  double inflation_ HJ_GUARDED_BY(mu_) = 0;
  /// Lookups per relation_id since the history began, halved every
  /// kHalvingPeriod lookups; relations whose count halves to 0 are gone.
  std::unordered_map<uint64_t, uint64_t> lookup_counts_ HJ_GUARDED_BY(mu_);
  uint32_t lookups_since_halving_ HJ_GUARDED_BY(mu_) = 0;
  CacheStats stats_ HJ_GUARDED_BY(mu_);
};

inline void PinnedTable::Reset() {
  if (cache_ != nullptr && entry_ != nullptr) {
    cache_->Unpin(entry_);
  }
  cache_ = nullptr;
  entry_ = nullptr;
}

}  // namespace cache
}  // namespace hashjoin

#endif  // HASHJOIN_CACHE_HASH_TABLE_CACHE_H_
