#ifndef HASHJOIN_UTIL_THREAD_POOL_H_
#define HASHJOIN_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hashjoin {

/// The worker threads the morsel-driven executor runs on. Work reaches
/// them only through a PoolExecutor: each executor registers one FIFO
/// task group on the pool, and several executors (concurrent queries
/// admitted by the join scheduler) may share one pool. An idle worker
/// takes the front task of the group that has queued work and the
/// fewest tasks running, so the workers spread fairly across active
/// groups instead of draining whichever query submitted first. Tasks
/// receive the worker index that runs them, so callers can keep
/// per-worker state (memory models, output sinks) without any locking
/// on the hot path.
///
/// One mutex, `mu_`, guards the group list, every group's queue and
/// in-service count, and the workers' sleep predicate, so a submit can
/// never slip between a worker's check for work and its park. A worker
/// runs its task without the lock and retires it in the lock hold that
/// picks its next task.
class ThreadPool {
 public:
  using Task = std::function<void(uint32_t worker_id)>;

  explicit ThreadPool(uint32_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins the workers. Dies if an executor is still registered: its
  /// tasks would be stranded.
  ~ThreadPool();

  uint32_t num_workers() const { return uint32_t(workers_.size()); }

 private:
  friend class PoolExecutor;

  /// One executor's share of the pool. Its members are guarded by the
  /// pool's `mu_` (left unannotated: the analysis cannot tell that a
  /// registered group's pool is `this`).
  struct TaskGroup {
    bool idle() const { return tasks.empty() && running == 0; }

    std::deque<Task> tasks;
    /// Tasks currently executing on a worker.
    uint32_t running = 0;
    CondVar done_cv;  // signaled when the group turns idle
  };

  void Register(TaskGroup* group) HJ_EXCLUDES(mu_);
  /// Waits for the group's tasks, then removes it.
  void Unregister(TaskGroup* group) HJ_EXCLUDES(mu_);
  void Submit(TaskGroup* group, Task task) HJ_EXCLUDES(mu_);
  /// Blocks until the group is idle.
  void Wait(TaskGroup* group) HJ_EXCLUDES(mu_);
  /// Among groups with queued tasks, the one with the fewest running;
  /// nullptr when nothing is queued.
  TaskGroup* PickLocked() HJ_REQUIRES(mu_);
  void WorkerLoop(uint32_t self) HJ_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_cv_;
  std::vector<TaskGroup*> groups_ HJ_GUARDED_BY(mu_);
  bool stop_ HJ_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// The executor handle the join code paths run on: either a private pool
/// (the original one-pool-per-join mode) or one fair-share group of a
/// pool shared across concurrent queries. Submit/Wait have the same
/// semantics either way — Wait() covers exactly this executor's tasks —
/// so GraceHashJoin and friends are agnostic to which mode they run in.
class PoolExecutor {
 public:
  /// Private-pool mode: owns a fresh pool of `num_threads` workers.
  explicit PoolExecutor(uint32_t num_threads)
      : owned_(std::make_unique<ThreadPool>(num_threads)),
        pool_(owned_.get()) {
    pool_->Register(&group_);
  }

  /// Shared-pool mode: one fair-share group of `shared` (must outlive
  /// this executor).
  explicit PoolExecutor(ThreadPool* shared) : pool_(shared) {
    pool_->Register(&group_);
  }

  PoolExecutor(const PoolExecutor&) = delete;
  PoolExecutor& operator=(const PoolExecutor&) = delete;

  /// Waits for this executor's tasks, then leaves the pool.
  ~PoolExecutor() { pool_->Unregister(&group_); }

  uint32_t num_workers() const { return pool_->num_workers(); }

  /// Enqueues a task. Safe from any thread, including from inside one
  /// of this executor's tasks; Wait() covers it.
  void Submit(ThreadPool::Task task) {
    pool_->Submit(&group_, std::move(task));
  }

  /// Waits for this executor's tasks only (not the whole shared pool).
  void Wait() { pool_->Wait(&group_); }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
  ThreadPool::TaskGroup group_;
};

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_THREAD_POOL_H_
