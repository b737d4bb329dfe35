#include "cache/hash_table_cache.h"

#include <algorithm>
#include <utility>

#include "model/cost_model.h"
#include "util/logging.h"

namespace hashjoin {
namespace cache {

namespace {

uint64_t Mix64(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t SchemaFingerprint(const Schema& schema) {
  uint64_t h = 0x5ca1ab1e00000000ULL ^ schema.num_attrs();
  for (size_t i = 0; i < schema.num_attrs(); ++i) {
    const Attribute& a = schema.attr(i);
    h = Mix64(h, uint64_t(a.type));
    h = Mix64(h, a.length);
    h = Mix64(h, schema.offset(i));
  }
  h = Mix64(h, schema.fixed_size());
  return h;
}

HashTableCache::HashTableCache(BudgetView budget) : budget_(budget) {}

HashTableCache::~HashTableCache() {
  MutexLock lock(mu_);
  for (const auto& [key, entry] : entries_) {
    HJ_CHECK(entry->pins == 0)
        << "HashTableCache destroyed with a pinned table";
  }
}

PinnedTable HashTableCache::Acquire(const CacheKey& key) {
  return PinnedTable(this, Pin(key));
}

const CachedTable* HashTableCache::Pin(const CacheKey& key) {
  MutexLock lock(mu_);
  ++stats_.lookups;
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second->doomed) {
    ++stats_.misses;
    return nullptr;
  }
  CachedTable* e = it->second.get();
  ++stats_.hits;
  ++e->pins;
  // GreedyDual refresh: a hit re-floats the entry above the current
  // inflation floor by its benefit density.
  e->priority =
      inflation_ +
      e->rebuild_cycles / double(std::max<uint64_t>(1, e->charged_bytes));
  return e;
}

void HashTableCache::Unpin(const CachedTable* entry) {
  MutexLock lock(mu_);
  HJ_CHECK(entry != nullptr) << "Unpin(nullptr)";
  auto it = entries_.find(entry->key);
  HJ_CHECK(it != entries_.end() && it->second.get() == entry)
      << "Unpin of a table this cache does not hold";
  CachedTable* e = it->second.get();
  HJ_CHECK(e->pins > 0) << "Unpin without a matching Pin";
  --e->pins;
  if (e->pins == 0 && e->doomed) {
    EraseLocked(e->key);
  }
  // Offer admits only within the budget, so occupancy above it means a
  // revoke that pins blocked, or one whose OnRevoke has not run yet;
  // either way it finishes here, as soon as pins drain.
  ShrinkLocked(budget_.bytes());
}

bool HashTableCache::Offer(const CacheKey& key,
                           std::shared_ptr<const Relation> build,
                           std::unique_ptr<HashTable> table,
                           double rebuild_cycles) {
  HJ_CHECK(build != nullptr && table != nullptr)
      << "Offer needs a build relation and a table";
  const uint64_t bytes =
      build->data_bytes() + HashTable::EstimateBytes(table->num_tuples());
  if (rebuild_cycles <= 0) {
    rebuild_cycles = EstimateRebuildCycles(table->num_tuples());
  }
  MutexLock lock(mu_);
  const uint64_t cap = budget_.bytes();
  if (bytes > cap || entries_.count(key) != 0) {
    ++stats_.rejected_inserts;
    return false;
  }
  while (charged_bytes_ + bytes > cap) {
    if (!EvictOneLocked(/*from_revoke=*/false)) {
      // Everything resident is pinned; dropping the offer beats evicting
      // a table someone is probing right now.
      ++stats_.rejected_inserts;
      return false;
    }
  }
  build->Freeze();
  auto entry = std::make_unique<CachedTable>();
  entry->key = key;
  entry->build = std::move(build);
  entry->table = std::move(table);
  entry->charged_bytes = bytes;
  entry->rebuild_cycles = rebuild_cycles;
  entry->priority =
      inflation_ + rebuild_cycles / double(std::max<uint64_t>(1, bytes));
  charged_bytes_ += bytes;
  ++stats_.inserts;
  entries_.emplace(key, std::move(entry));
  return true;
}

uint64_t HashTableCache::Invalidate(uint64_t relation_id) {
  MutexLock lock(mu_);
  uint64_t affected = 0;
  std::vector<CacheKey> dead;
  for (auto& [key, entry] : entries_) {
    if (key.relation_id != relation_id || entry->doomed) continue;
    ++affected;
    if (entry->pins > 0) {
      entry->doomed = true;  // freed at the last Unpin
    } else {
      dead.push_back(key);
    }
  }
  for (const CacheKey& key : dead) EraseLocked(key);
  stats_.invalidations += affected;
  return affected;
}

void HashTableCache::OnRevoke() {
  MutexLock lock(mu_);
  ShrinkLocked(budget_.bytes());
}

bool HashTableCache::EvictOneLocked(bool from_revoke) {
  CachedTable* victim = nullptr;
  for (auto& [key, entry] : entries_) {
    if (entry->pins > 0) continue;
    if (victim == nullptr || entry->priority < victim->priority) {
      victim = entry.get();
    }
  }
  if (victim == nullptr) return false;
  inflation_ = std::max(inflation_, victim->priority);
  ++stats_.evictions;
  if (from_revoke) stats_.revoked_bytes += victim->charged_bytes;
  EraseLocked(victim->key);
  return true;
}

void HashTableCache::ShrinkLocked(uint64_t capacity) {
  while (charged_bytes_ > capacity) {
    // Pinned entries block the rest of the shrink; Unpin finishes it.
    if (!EvictOneLocked(/*from_revoke=*/true)) return;
  }
}

void HashTableCache::EraseLocked(const CacheKey& key) {
  auto it = entries_.find(key);
  HJ_CHECK(it != entries_.end()) << "erase of an absent cache entry";
  charged_bytes_ -= it->second->charged_bytes;
  entries_.erase(it);
}

CacheStats HashTableCache::stats() const {
  MutexLock lock(mu_);
  CacheStats s = stats_;
  s.charged_bytes = charged_bytes_;
  s.entries = entries_.size();
  s.pinned_entries = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->pins > 0) ++s.pinned_entries;
  }
  return s;
}

double HashTableCache::EstimateRebuildCycles(uint64_t tuples) {
  // Build-loop stage costs in the shape the cost model expects: compute
  // hash / visit bucket header / append cell — the same three-stage
  // split the build kernels interleave. Absolute values matter less
  // than proportionality across table sizes; the eviction policy only
  // compares entries against each other.
  model::CodeCosts costs{{25, 15, 10}};
  model::MachineParams machine;
  model::ParamChoice choice = model::ChooseParams(costs, machine);
  return double(model::GroupPrefetchModel::CriticalPathCycles(
      costs, machine, choice.group_size, tuples));
}

}  // namespace cache
}  // namespace hashjoin
