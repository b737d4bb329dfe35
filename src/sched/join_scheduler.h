#ifndef HASHJOIN_SCHED_JOIN_SCHEDULER_H_
#define HASHJOIN_SCHED_JOIN_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/hash_table_cache.h"
#include "sched/memory_broker.h"
#include "sched/query_context.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hashjoin {

/// Join-service sizing knobs.
struct SchedulerConfig {
  /// Queries running at once. Each gets a dedicated runner thread (the
  /// query body blocks on grant acquisition and pool drains, so it must
  /// not occupy a pool worker) plus a fair-share group on the pool.
  uint32_t max_concurrent = 2;

  /// Admission-queue bound; a Submit() past this is rejected with
  /// kResourceExhausted — backpressure, never silent queuing.
  uint32_t max_queue = 8;

  /// Workers in the single pool every admitted query's morsels share
  /// (instead of one pool per join).
  uint32_t pool_threads = 4;

  /// The memory broker's global grant budget, bytes.
  uint64_t memory_budget = 64ull << 20;

  /// Capacity of the cross-query hash-table cache, carved out of the
  /// broker budget as a lowest-priority revocable grant
  /// (GrantClass::kCache) — so cached tables shrink before any active
  /// join is squeezed. 0 disables the cache.
  uint64_t cache_bytes = 0;
};

/// One unit of admission: a named, prioritized query body plus its
/// memory-grant envelope.
struct JoinRequest {
  std::string name;

  /// Higher runs first; FIFO within a priority level.
  int priority = 0;

  /// Seconds from Submit() the query is worth starting; 0 = no deadline.
  /// A query still queued (or still waiting for its minimum grant) when
  /// the deadline passes completes with kDeadlineExceeded. A deadline
  /// never interrupts a query that already started running.
  double deadline_seconds = 0;

  /// Grant envelope passed to MemoryBroker::Acquire — the body is
  /// admitted with at least `min_grant_bytes` and at most
  /// `desired_grant_bytes`, and may be revoked down to the minimum while
  /// it runs.
  uint64_t min_grant_bytes = 1ull << 20;
  uint64_t desired_grant_bytes = 8ull << 20;

  /// The query. Runs on a runner thread with the grant held; returns its
  /// output tuple count or a Status. Long-running bodies should size
  /// in-memory structures off ctx.GrantFn() (wired into the join
  /// configs) so broker revokes translate into spilling. Morsel work
  /// goes through ctx.executor() — the shared pool's fair-share handle.
  std::function<StatusOr<uint64_t>(QueryContext& ctx)> body;
};

/// Admission control + execution for concurrent joins: a bounded
/// priority queue in front of `max_concurrent` runner threads, one
/// shared ThreadPool fair-shared across the running queries' morsels,
/// and one MemoryBroker whose revocable grants bound each query's
/// memory.
///
/// Submit() is thread-safe and non-blocking: it returns the query id, or
/// kResourceExhausted when the queue is full (the backpressure signal —
/// callers retry or shed load). Completion is observed via WaitAll() /
/// Drain(); per-query outcomes (including failures) are QueryStats
/// records, never exceptions or crashes.
///
/// The destructor drains: queued queries still run. Reject first
/// (Submit checks a closed flag) — destruction with traffic in flight is
/// a caller bug only if callers keep submitting concurrently with it.
class JoinScheduler {
 public:
  explicit JoinScheduler(const SchedulerConfig& config);
  ~JoinScheduler();

  JoinScheduler(const JoinScheduler&) = delete;
  JoinScheduler& operator=(const JoinScheduler&) = delete;

  /// Queues `req`. Returns the query id, kResourceExhausted when the
  /// admission queue is full, kInvalidArgument for an empty body, or
  /// kFailedPrecondition after shutdown began.
  StatusOr<uint64_t> Submit(JoinRequest req) HJ_EXCLUDES(mu_, stats_mu_);

  /// Blocks until every admitted query has completed.
  void WaitAll() HJ_EXCLUDES(mu_);

  /// WaitAll(), then a snapshot of everything the service recorded.
  /// Callable repeatedly; later calls see later completions too.
  ServiceStats Drain() HJ_EXCLUDES(mu_, stats_mu_);

  MemoryBroker& broker() { return broker_; }
  const SchedulerConfig& config() const { return config_; }

  /// The cross-query hash-table cache, or nullptr when
  /// `SchedulerConfig::cache_bytes` is 0. Query bodies reach it through
  /// their QueryContext.
  cache::HashTableCache* table_cache() { return cache_.get(); }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Entry {
    JoinRequest req;
    uint64_t id = 0;
    uint64_t seq = 0;  // submission order; FIFO tie-break
    TimePoint submit_time;
  };

  void RunnerLoop() HJ_EXCLUDES(mu_);
  void RunOne(Entry entry) HJ_EXCLUDES(mu_, stats_mu_);
  /// Files a finished query's record under stats_mu_. `counter` is the
  /// ServiceStats field to bump (completed/failed/deadline_expired).
  void Record(QueryStats stats, uint64_t ServiceStats::* counter)
      HJ_EXCLUDES(stats_mu_);

  SchedulerConfig config_;
  MemoryBroker broker_;
  ThreadPool pool_;

  /// Cache + the broker grant it reads its budget from. Declared after
  /// broker_ so destruction checks no table is still pinned, then
  /// releases the grant, before the broker asserts none is outstanding.
  std::unique_ptr<MemoryGrant> cache_grant_;
  std::unique_ptr<cache::HashTableCache> cache_;

  /// Admission state. Lock order: mu_ before stats_mu_ (Submit bumps
  /// the rejected/submitted tallies while holding the queue lock).
  Mutex mu_ HJ_ACQUIRED_BEFORE(stats_mu_);
  CondVar work_cv_;
  CondVar idle_cv_;
  std::vector<Entry> queue_ HJ_GUARDED_BY(mu_);
  bool stop_ HJ_GUARDED_BY(mu_) = false;
  uint32_t running_ HJ_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ HJ_GUARDED_BY(mu_) = 1;
  uint64_t next_seq_ HJ_GUARDED_BY(mu_) = 0;

  Mutex stats_mu_;
  ServiceStats stats_ HJ_GUARDED_BY(stats_mu_);
  bool saw_submit_ HJ_GUARDED_BY(stats_mu_) = false;
  TimePoint first_submit_ HJ_GUARDED_BY(stats_mu_);
  TimePoint last_done_ HJ_GUARDED_BY(stats_mu_);

  std::vector<std::thread> runners_;
};

}  // namespace hashjoin

#endif  // HASHJOIN_SCHED_JOIN_SCHEDULER_H_
