#ifndef HASHJOIN_SCHED_MEMORY_BROKER_H_
#define HASHJOIN_SCHED_MEMORY_BROKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/budget_view.h"
#include "util/fields.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hashjoin {

class MemoryBroker;

/// Revocation priority class of a grant. `kCache` marks memory that is
/// merely an optimization (the cross-query hash-table cache): when an
/// admission needs bytes, every kCache grant's surplus is drained before
/// any kNormal grant is touched, and released bytes re-grow kNormal
/// grants first — so cached tables are always sacrificed before an
/// active join is squeezed into its degradation ladder.
enum class GrantClass {
  kNormal,
  kCache,
};

/// A grant's whole history, read at the end of its query.
struct GrantHistory {
  uint64_t initial_bytes = 0;  ///< bytes held right after Acquire
  uint64_t low_bytes = 0;      ///< smallest size a revoke forced
  uint64_t final_bytes = 0;    ///< size when the query finished
  uint64_t revokes = 0;        ///< times the broker shrank it
  uint64_t regrows = 0;        ///< times the broker re-grew it

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("initial_bytes", &GrantHistory::initial_bytes, fields::Kind::kLevel);
    v("low_bytes", &GrantHistory::low_bytes, fields::Kind::kLevel);
    v("final_bytes", &GrantHistory::final_bytes, fields::Kind::kLevel);
    v("revokes", &GrantHistory::revokes);
    v("regrows", &GrantHistory::regrows);
  }
};

/// The broker's cache-grant ledger: bytes revoked from the kCache class
/// and normal-grant revokes made while cache surplus remained (see
/// MemoryBroker::cache_revoked_bytes and
/// normal_revokes_with_cache_surplus).
struct CacheLedger {
  uint64_t broker_revoked_bytes = 0;
  uint64_t normal_revokes_with_cache_surplus = 0;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("broker_revoked_bytes", &CacheLedger::broker_revoked_bytes);
    v("normal_revokes_with_cache_surplus",
      &CacheLedger::normal_revokes_with_cache_surplus);
  }
};

/// One revocable memory reservation handed out by a MemoryBroker.
///
/// The broker may shrink the grant (down to its admission minimum) at any
/// time to admit another query, and re-grow it (up to its desired size)
/// when budget frees up. The owning query reads `bytes()` — a relaxed
/// atomic load, safe from any thread — at every sizing decision; wiring
/// `budget()` into `DiskJoinConfig::dynamic_budget` or
/// `GraceConfig::dynamic_budget` makes the join spill more partitions
/// after a revoke and build in memory again after a re-grow, with no
/// locking on the join's hot path.
///
/// Destroying (or Release()ing) the grant returns its bytes to the
/// broker, which redistributes them to shrunken grants and wakes blocked
/// Acquire() calls. The handle must outlive every view obtained from
/// budget().
class MemoryGrant {
 public:
  ~MemoryGrant() { Release(); }

  MemoryGrant(const MemoryGrant&) = delete;
  MemoryGrant& operator=(const MemoryGrant&) = delete;

  /// Bytes currently granted (relaxed atomic; any thread).
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

  /// The live budget to wire into a join config, a buffer manager or
  /// the cache; the grant must outlive the view.
  BudgetView budget() const { return BudgetView(&bytes_); }

  /// Admission minimum / ceiling this grant was acquired with.
  uint64_t min_bytes() const { return min_bytes_; }
  uint64_t desired_bytes() const { return desired_bytes_; }

  /// Revocation priority class (see GrantClass).
  GrantClass grant_class() const { return class_; }

  /// Times the broker shrank / re-grew this grant.
  uint64_t revokes() const { return revokes_.load(std::memory_order_relaxed); }
  uint64_t regrows() const { return regrows_.load(std::memory_order_relaxed); }

  /// Bytes granted at acquisition, and the smallest size ever held —
  /// together with bytes() these describe the grant's whole history.
  uint64_t initial_bytes() const { return initial_bytes_; }
  uint64_t low_watermark() const {
    return low_watermark_.load(std::memory_order_relaxed);
  }

  GrantHistory History() const {
    return {initial_bytes(), low_watermark(), bytes(), revokes(), regrows()};
  }

  /// Installs a callback invoked after each revoke with the new grant
  /// size. The polling-based spill path does not need this; it exists
  /// for callers that want to react eagerly (e.g. the hybrid join's
  /// victim eviction hint).
  ///
  /// Locking contract:
  ///  - The callback runs on the *revoking* thread (another query's
  ///    admission path) with no broker locks held. It must not call
  ///    back into the broker or this grant's Acquire/Release machinery
  ///    synchronously — not because it would deadlock today, but
  ///    because it would stall the other query's admission on work of
  ///    arbitrary duration. Store the value (an atomic) and return.
  ///  - If a revoke already fired before installation, the new listener
  ///    is invoked once immediately — from the *installing* thread,
  ///    outside the listener lock — with the live grant size, so a
  ///    late installer never misses the current value. That catch-up
  ///    call can race a concurrent revoke's notification, so the
  ///    callback must be safe to run from either thread at any time
  ///    (values may arrive out of order; treat the smallest recently
  ///    seen value as binding, or re-poll bytes()).
  void SetRevokeListener(std::function<void(uint64_t new_bytes)> fn);

  /// Returns all bytes to the broker. Idempotent; also run by the dtor.
  void Release();

 private:
  friend class MemoryBroker;
  MemoryGrant(MemoryBroker* broker, uint64_t bytes, uint64_t min_bytes,
              uint64_t desired_bytes, GrantClass grant_class)
      : broker_(broker),
        bytes_(bytes),
        min_bytes_(min_bytes),
        desired_bytes_(desired_bytes),
        class_(grant_class),
        initial_bytes_(bytes),
        low_watermark_(bytes) {}

  MemoryBroker* broker_;
  std::atomic<uint64_t> bytes_;
  const uint64_t min_bytes_;
  const uint64_t desired_bytes_;
  const GrantClass class_;
  const uint64_t initial_bytes_;
  std::atomic<uint64_t> low_watermark_;
  std::atomic<uint64_t> revokes_{0};
  std::atomic<uint64_t> regrows_{0};
  Mutex listener_mu_;
  std::function<void(uint64_t)> revoke_listener_ HJ_GUARDED_BY(listener_mu_);
};

/// Hands out revocable memory grants from one global budget.
///
/// Policy: a new query asks for [min_bytes, desired_bytes]. Free budget
/// is granted up to `desired`. If free budget cannot cover `min`, the
/// broker *revokes* surplus — bytes above other grants' admission minima,
/// largest surplus first — until `min` is covered; the shrunken queries
/// observe the smaller grant at their next sizing decision and spill.
/// Revocation never cuts a grant below its own minimum, so an Acquire
/// whose minimum exceeds free-plus-revocable blocks (bounded by its
/// timeout) until a release makes room. Released bytes are redistributed
/// to shrunken grants in acquisition order (oldest first), re-growing
/// them toward `desired` — the un-spill signal.
///
/// All methods are thread-safe.
class MemoryBroker {
 public:
  explicit MemoryBroker(uint64_t total_budget);
  ~MemoryBroker();

  MemoryBroker(const MemoryBroker&) = delete;
  MemoryBroker& operator=(const MemoryBroker&) = delete;

  /// Acquires a grant of `min_bytes`..`desired_bytes`, revoking other
  /// grants' surplus if needed (see class comment). Blocks up to
  /// `timeout_seconds` for budget to free up (negative = wait forever,
  /// 0 = fail immediately if `min_bytes` is not coverable right now).
  /// Errors: kInvalidArgument for min > desired or min == 0;
  /// kResourceExhausted when min_bytes exceeds the total budget (can
  /// never succeed); kDeadlineExceeded when the timeout passed first.
  ///
  /// `grant_class` sets the revocation priority: kCache grants lose
  /// their surplus before any kNormal grant is cut and re-grow last
  /// (see GrantClass).
  StatusOr<std::unique_ptr<MemoryGrant>> Acquire(
      uint64_t min_bytes, uint64_t desired_bytes,
      double timeout_seconds = -1,
      GrantClass grant_class = GrantClass::kNormal) HJ_EXCLUDES(mu_);

  uint64_t total_budget() const { return total_budget_; }

  /// Unreserved bytes right now.
  uint64_t free_bytes() const;

  /// Grants currently outstanding.
  uint64_t active_grants() const;

  /// Cumulative revoke / re-grow events across all grants.
  uint64_t total_revokes() const {
    return total_revokes_.load(std::memory_order_relaxed);
  }
  uint64_t total_regrows() const {
    return total_regrows_.load(std::memory_order_relaxed);
  }

  /// Cumulative bytes revoked from kCache grants — the "bytes the cache
  /// gave back under pressure" side of the reuse ledger.
  uint64_t cache_revoked_bytes() const {
    return cache_revoked_bytes_.load(std::memory_order_relaxed);
  }

  /// Times a kNormal grant was cut while some kCache grant still held
  /// revocable surplus. The class ordering makes this impossible, so a
  /// non-zero value means an active join was squeezed on the cache's
  /// account — the invariant `concurrent_bench --revoke-storm` gates on
  /// staying 0.
  uint64_t normal_revokes_with_cache_surplus() const {
    return normal_revokes_with_cache_surplus_.load(
        std::memory_order_relaxed);
  }

  CacheLedger cache_ledger() const {
    return {cache_revoked_bytes(), normal_revokes_with_cache_surplus()};
  }

 private:
  friend class MemoryGrant;

  /// Returns `grant`'s bytes to the pool and redistributes.
  void ReleaseGrant(MemoryGrant* grant) HJ_EXCLUDES(mu_);

  /// Gives free bytes to shrunken grants (oldest first, up to desired)
  /// and wakes blocked Acquire() calls.
  void RedistributeLocked() HJ_REQUIRES(mu_);

  /// Sum of revocable surplus (bytes above min) across grants.
  uint64_t RevocableLocked() const HJ_REQUIRES(mu_);

  const uint64_t total_budget_;
  /// Lock order: mu_ before a grant's listener_mu_ (Acquire revokes a
  /// victim and snapshots its listener under both).
  mutable Mutex mu_;
  CondVar budget_cv_;
  uint64_t free_ HJ_GUARDED_BY(mu_) = 0;
  /// Acquisition order (oldest first = re-grow priority).
  std::vector<MemoryGrant*> grants_ HJ_GUARDED_BY(mu_);
  std::atomic<uint64_t> total_revokes_{0};
  std::atomic<uint64_t> total_regrows_{0};
  std::atomic<uint64_t> cache_revoked_bytes_{0};
  std::atomic<uint64_t> normal_revokes_with_cache_surplus_{0};
};

}  // namespace hashjoin

#endif  // HASHJOIN_SCHED_MEMORY_BROKER_H_
