#ifndef HASHJOIN_SCHED_QUERY_CONTEXT_H_
#define HASHJOIN_SCHED_QUERY_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/hash_table_cache.h"
#include "join/grace_disk.h"
#include "sched/memory_broker.h"
#include "storage/buffer_manager.h"
#include "util/fields.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hashjoin {

/// Everything the service recorded about one submitted query — filled
/// partly by the scheduler (identity, timing, final status) and partly by
/// the query body itself (output count, spill/recovery counters). The
/// concurrent bench threads these into the JSON schema per query.
struct QueryStats {
  uint64_t query_id = 0;
  std::string name;
  int priority = 0;

  /// Final disposition. `status` is OK only for a completed query;
  /// queries that expired in the queue carry kDeadlineExceeded.
  Status status;

  /// Seconds from Submit() to the moment a runner picked the query up.
  double queue_seconds = 0;
  /// Seconds the query body ran (grant acquisition included).
  double run_seconds = 0;

  uint64_t output_tuples = 0;

  /// Copied from the MemoryGrant at completion.
  GrantHistory grant;

  // --- spill + I/O recovery, filled by the query body ---
  /// Skew/spill counters diffed from the query's DiskGraceJoin runs;
  /// revoke_spills > 0 is the "spilled because of a revoke" signal.
  DiskJoinRecovery recovery;
  /// I/O retry counters diffed from the query's BufferManager.
  IoRecoveryStats io;
  /// Scan read-ahead windows clamped by the grant (BufferManager diff).
  uint64_t readahead_throttles = 0;
  /// Per-level key-hash histograms and realized spill costs from the
  /// query's DiskGraceJoin runs (one entry per partitioning level that
  /// actually ran); feeds the cache's rebuild-cost estimates and the
  /// bench JSON skew summaries.
  std::vector<SpillLevelStats> spill_levels;
};

/// Service-level aggregate over one scheduler lifetime.
struct ServiceStats {
  uint64_t submitted = 0;         ///< Submit() calls that were admitted
  uint64_t rejected = 0;          ///< Submit() calls bounced off a full queue
  uint64_t completed = 0;         ///< queries that returned OK
  uint64_t failed = 0;            ///< queries that returned an error
  uint64_t deadline_expired = 0;  ///< queries dropped before running
  /// First Submit() to last completion, seconds.
  double makespan_seconds = 0;
  /// Per-query records in completion order (includes failed/expired).
  std::vector<QueryStats> queries;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("submitted", &ServiceStats::submitted);
    v("rejected", &ServiceStats::rejected);
    v("completed", &ServiceStats::completed);
    v("failed", &ServiceStats::failed);
    v("deadline_expired", &ServiceStats::deadline_expired);
    v("makespan_seconds", &ServiceStats::makespan_seconds);
    v("queries", &ServiceStats::queries, fields::kInternal);
  }
};

/// Handed to a query body by the scheduler: the query's revocable memory
/// grant, its fair share of the shared worker pool, and the stats record
/// it should fill. The context (and thus the grant and executor) lives
/// until the body returns and its pool work is drained.
///
/// Deliberately unannotated/unlocked: a QueryContext is owned by
/// exactly one runner thread for its whole lifetime — the scheduler
/// constructs it, passes it to the body on that same thread, and drains
/// the pool group before reading stats back. Morsel tasks reach shared
/// state only through executor() (the pool's own synchronization) and
/// grant() (atomics inside MemoryGrant), never through this object.
class QueryContext {
 public:
  QueryContext(uint64_t query_id, std::string name,
               std::unique_ptr<MemoryGrant> grant, ThreadPool* shared_pool,
               cache::HashTableCache* table_cache = nullptr)
      : grant_(std::move(grant)),
        executor_(shared_pool),
        table_cache_(table_cache) {
    stats_.query_id = query_id;
    stats_.name = std::move(name);
  }

  uint64_t query_id() const { return stats_.query_id; }
  const std::string& name() const { return stats_.name; }

  /// Live grant size in bytes (relaxed atomic; any thread).
  uint64_t grant_bytes() const { return grant_->bytes(); }

  /// The live budget to wire into `DiskJoinConfig::dynamic_budget` /
  /// `GraceConfig::dynamic_budget` and `SetReadAheadBudget`. Valid while
  /// this context lives.
  BudgetView GrantFn() const { return grant_->budget(); }

  /// The closure to wire into `DiskJoinConfig::install_revoke_listener`:
  /// lets the join (re)install its revoke listener on this query's grant
  /// without holding a reference to the grant itself. Valid while this
  /// context lives.
  std::function<void(std::function<void(uint64_t)>)> RevokeListenerInstaller() {
    return [this](std::function<void(uint64_t)> fn) {
      grant_->SetRevokeListener(std::move(fn));
    };
  }

  MemoryGrant& grant() { return *grant_; }

  /// This query's fair-share submission handle on the scheduler's shared
  /// work-stealing pool; pass as `GraceConfig::executor`.
  PoolExecutor& executor() { return executor_; }

  /// Mutable while the body runs; the body fills output/recovery fields.
  QueryStats& stats() { return stats_; }

  /// The service's cross-query hash-table cache; nullptr when the
  /// scheduler runs without one. Wire into `GraceConfig::table_cache`
  /// (with a CacheKey) to consult it before the build phase.
  cache::HashTableCache* table_cache() { return table_cache_; }

 private:
  std::unique_ptr<MemoryGrant> grant_;
  PoolExecutor executor_;
  cache::HashTableCache* table_cache_ = nullptr;
  QueryStats stats_;
};

}  // namespace hashjoin

#endif  // HASHJOIN_SCHED_QUERY_CONTEXT_H_
