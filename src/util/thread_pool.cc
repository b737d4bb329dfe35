#include "util/thread_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace hashjoin {

ThreadPool::ThreadPool(uint32_t num_threads) {
  HJ_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    HJ_CHECK(groups_.empty())
        << "ThreadPool destroyed with an executor still registered";
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Register(TaskGroup* group) {
  MutexLock lk(mu_);
  groups_.push_back(group);
}

void ThreadPool::Unregister(TaskGroup* group) {
  MutexLock lk(mu_);
  while (!group->idle()) group->done_cv.Wait(lk);
  groups_.erase(std::find(groups_.begin(), groups_.end(), group));
}

void ThreadPool::Submit(TaskGroup* group, Task task) {
  {
    MutexLock lk(mu_);
    group->tasks.push_back(std::move(task));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Wait(TaskGroup* group) {
  MutexLock lk(mu_);
  while (!group->idle()) group->done_cv.Wait(lk);
}

ThreadPool::TaskGroup* ThreadPool::PickLocked() {
  // Each active group converges to an equal worker share.
  TaskGroup* best = nullptr;
  for (TaskGroup* g : groups_) {
    if (!g->tasks.empty() && (best == nullptr || g->running < best->running)) {
      best = g;
    }
  }
  return best;
}

void ThreadPool::WorkerLoop(uint32_t self) {
  MutexLock lk(mu_);
  while (true) {
    TaskGroup* group = PickLocked();
    if (group == nullptr) {
      if (stop_) return;
      work_cv_.Wait(lk);
      continue;
    }
    Task task = std::move(group->tasks.front());
    group->tasks.pop_front();
    ++group->running;
    lk.Unlock();
    task(self);
    task = nullptr;  // the captures go before Wait() can return
    lk.Lock();
    --group->running;
    if (group->idle()) group->done_cv.NotifyAll();
  }
}

}  // namespace hashjoin
