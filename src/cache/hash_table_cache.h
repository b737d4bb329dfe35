#ifndef HASHJOIN_CACHE_HASH_TABLE_CACHE_H_
#define HASHJOIN_CACHE_HASH_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hash/hash_table.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "util/budget_view.h"
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
/// relation's pages, so the relation must stay alive exactly as long as
/// the table; the shared_ptr makes that a single lifetime. A catalog
/// that updates a relation swaps in a fresh Relation and bumps the
/// version — in-flight pins of the old version keep the old pages valid.
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
  double priority = 0;  ///< GreedyDual H-value (see EvictOneLocked)
};

/// Counters describing one cache's lifetime, snapshot under the lock.
struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t rejected_inserts = 0;  ///< Offer() dropped (too big / duplicate)
  uint64_t evictions = 0;         ///< capacity-pressure removals
  uint64_t invalidations = 0;     ///< entries removed by Invalidate()
  uint64_t revoked_bytes = 0;     ///< bytes released because of revokes
  uint64_t charged_bytes = 0;     ///< current occupancy
  uint64_t entries = 0;
  uint64_t pinned_entries = 0;

  double HitRate() const {
    return lookups == 0 ? 0.0 : double(hits) / double(lookups);
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
/// Eviction is LRU-by-benefit (GreedyDual-Size): each entry carries
/// H = L + rebuild_cycles / bytes where L is the inflation floor (the H
/// of the last eviction). A hit refreshes H, so recently used and
/// expensive-to-rebuild-per-byte tables survive; cold cheap ones go
/// first.
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
  /// success (returns true); rejects duplicates of an existing key and
  /// tables that cannot fit even an empty cache. `rebuild_cycles` is
  /// the eviction benefit; pass 0 to use the model estimate
  /// (EstimateRebuildCycles) for the table's tuple count.
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

  /// Evicts the lowest-priority unpinned entry. Returns false when
  /// every entry is pinned (nothing evictable right now).
  bool EvictOneLocked(bool from_revoke) HJ_REQUIRES(mu_);

  /// Evicts until occupancy fits `capacity` (or everything left is
  /// pinned), counting the bytes as revoked.
  void ShrinkLocked(uint64_t capacity) HJ_REQUIRES(mu_);

  void EraseLocked(const CacheKey& key) HJ_REQUIRES(mu_);

  const BudgetView budget_;
  mutable Mutex mu_;
  std::unordered_map<CacheKey, std::unique_ptr<CachedTable>, KeyPtrHash>
      entries_ HJ_GUARDED_BY(mu_);
  uint64_t charged_bytes_ HJ_GUARDED_BY(mu_) = 0;
  /// GreedyDual inflation floor: H of the last evicted entry.
  double inflation_ HJ_GUARDED_BY(mu_) = 0;
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
