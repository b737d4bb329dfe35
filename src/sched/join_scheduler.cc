#include "sched/join_scheduler.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace hashjoin {

JoinScheduler::JoinScheduler(const SchedulerConfig& config)
    : config_(config),
      broker_(config.memory_budget),
      pool_(std::max(1u, config.pool_threads)) {
  HJ_CHECK(config_.max_concurrent >= 1);
  HJ_CHECK(config_.max_queue >= 1);
  if (config_.cache_bytes > 0) {
    // The cache is an ordinary broker client in the lowest-priority
    // class: a tiny irrevocable minimum (so the broker always has a
    // victim ordering, never a blocked admission on the cache's
    // account) and the full capacity as revocable surplus.
    const uint64_t cache_min =
        std::min<uint64_t>(config_.cache_bytes, 64 * 1024);
    auto grant_or = broker_.Acquire(cache_min, config_.cache_bytes,
                                    /*timeout_seconds=*/0,
                                    GrantClass::kCache);
    HJ_CHECK(grant_or.ok())
        << "cache grant failed: " << grant_or.status().ToString();
    cache_grant_ = std::move(grant_or).value();
    cache_ = std::make_unique<cache::HashTableCache>(cache_grant_->budget());
    cache::HashTableCache* cache = cache_.get();
    cache_grant_->SetRevokeListener([cache](uint64_t) { cache->OnRevoke(); });
  }
  runners_.reserve(config_.max_concurrent);
  for (uint32_t i = 0; i < config_.max_concurrent; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

JoinScheduler::~JoinScheduler() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& t : runners_) {
    if (t.joinable()) t.join();
  }
}

StatusOr<uint64_t> JoinScheduler::Submit(JoinRequest req) {
  if (!req.body) {
    return Status::InvalidArgument("join request has no body");
  }
  MutexLock lock(mu_);
  if (stop_) {
    return Status::FailedPrecondition("join scheduler is shutting down");
  }
  if (queue_.size() >= config_.max_queue) {
    MutexLock slock(stats_mu_);
    ++stats_.rejected;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(config_.max_queue) +
        " queued); retry or shed \"" + req.name + "\"");
  }
  Entry e;
  e.req = std::move(req);
  e.id = next_id_++;
  e.seq = next_seq_++;
  e.submit_time = std::chrono::steady_clock::now();
  {
    MutexLock slock(stats_mu_);
    ++stats_.submitted;
    if (!saw_submit_) {
      saw_submit_ = true;
      first_submit_ = e.submit_time;
    }
  }
  queue_.push_back(std::move(e));
  work_cv_.NotifyOne();
  return queue_.back().id;
}

void JoinScheduler::RunnerLoop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stop_ && queue_.empty()) work_cv_.Wait(lock);
    if (queue_.empty()) {
      if (stop_) return;  // drained
      continue;
    }
    // Highest priority first, FIFO within a level. The queue is small
    // (max_queue entries), so a linear scan beats heap bookkeeping.
    size_t best = 0;
    for (size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].req.priority > queue_[best].req.priority ||
          (queue_[i].req.priority == queue_[best].req.priority &&
           queue_[i].seq < queue_[best].seq)) {
        best = i;
      }
    }
    Entry entry = std::move(queue_[best]);
    queue_.erase(queue_.begin() + ptrdiff_t(best));
    ++running_;
    lock.Unlock();
    RunOne(std::move(entry));
    lock.Lock();
    --running_;
    if (queue_.empty() && running_ == 0) idle_cv_.NotifyAll();
  }
}

void JoinScheduler::RunOne(Entry entry) {
  const JoinRequest& req = entry.req;
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    entry.submit_time)
          .count();

  QueryStats qs;
  qs.query_id = entry.id;
  qs.name = req.name;
  qs.priority = req.priority;
  qs.queue_seconds = waited;

  // Deadline gate: a query not worth starting is dropped cleanly.
  double grant_timeout = -1;
  if (req.deadline_seconds > 0) {
    grant_timeout = req.deadline_seconds - waited;
    if (grant_timeout <= 0) {
      qs.status =
          Status::DeadlineExceeded("\"" + req.name +
                                   "\" expired in the admission queue");
      Record(std::move(qs), &ServiceStats::deadline_expired);
      return;
    }
  }

  WallTimer run_timer;
  auto grant_or = broker_.Acquire(req.min_grant_bytes,
                                  req.desired_grant_bytes, grant_timeout);
  if (!grant_or.ok()) {
    qs.status = grant_or.status();
    qs.run_seconds = run_timer.ElapsedSeconds();
    uint64_t ServiceStats::* bucket =
        qs.status.code() == StatusCode::kDeadlineExceeded
            ? &ServiceStats::deadline_expired
            : &ServiceStats::failed;
    Record(std::move(qs), bucket);
    return;
  }

  uint64_t ServiceStats::* counter = &ServiceStats::completed;
  {
    QueryContext ctx(entry.id, req.name, std::move(grant_or).value(),
                     &pool_, cache_.get());
    ctx.stats().priority = req.priority;
    ctx.stats().queue_seconds = waited;

    StatusOr<uint64_t> result = req.body(ctx);
    // Drain this query's pool group before touching stats or releasing
    // the grant: stragglers may still read both.
    ctx.executor().Wait();

    if (result.ok()) {
      ctx.stats().output_tuples = result.value();
      ctx.stats().status = Status::OK();
    } else {
      ctx.stats().status = result.status();
      counter = &ServiceStats::failed;
    }

    const MemoryGrant& grant = ctx.grant();
    ctx.stats().grant_initial_bytes = grant.initial_bytes();
    ctx.stats().grant_low_bytes = grant.low_watermark();
    ctx.stats().grant_final_bytes = grant.bytes();
    ctx.stats().grant_revokes = grant.revokes();
    ctx.stats().grant_regrows = grant.regrows();
    ctx.stats().run_seconds = run_timer.ElapsedSeconds();

    qs = std::move(ctx.stats());
  }  // ~QueryContext releases the grant; the broker redistributes.
  Record(std::move(qs), counter);
}

void JoinScheduler::Record(QueryStats stats,
                           uint64_t ServiceStats::* counter) {
  MutexLock lock(stats_mu_);
  stats_.*counter += 1;
  stats_.queries.push_back(std::move(stats));
  last_done_ = std::chrono::steady_clock::now();
}

void JoinScheduler::WaitAll() {
  MutexLock lock(mu_);
  while (!queue_.empty() || running_ != 0) idle_cv_.Wait(lock);
}

ServiceStats JoinScheduler::Drain() {
  WaitAll();
  MutexLock lock(stats_mu_);
  ServiceStats snapshot = stats_;
  if (saw_submit_ && !snapshot.queries.empty()) {
    snapshot.makespan_seconds =
        std::chrono::duration<double>(last_done_ - first_submit_).count();
  }
  return snapshot;
}

}  // namespace hashjoin
