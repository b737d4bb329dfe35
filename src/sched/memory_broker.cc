#include "sched/memory_broker.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"

namespace hashjoin {

void MemoryGrant::SetRevokeListener(std::function<void(uint64_t)> fn) {
  std::function<void(uint64_t)> catch_up;
  {
    MutexLock lock(listener_mu_);
    revoke_listener_ = std::move(fn);
    // Catch-up: a listener installed after a revoke already fired would
    // otherwise wait forever for a notification that is not coming —
    // the broker only notifies at revoke time. Fire it once with the
    // live grant size, from this (installing) thread, outside the lock.
    if (revoke_listener_ != nullptr &&
        revokes_.load(std::memory_order_relaxed) > 0) {
      catch_up = revoke_listener_;
    }
  }
  if (catch_up != nullptr) catch_up(bytes());
}

void MemoryGrant::Release() {
  if (broker_ != nullptr) {
    broker_->ReleaseGrant(this);
    broker_ = nullptr;
  }
}

MemoryBroker::MemoryBroker(uint64_t total_budget)
    : total_budget_(total_budget), free_(total_budget) {
  HJ_CHECK(total_budget > 0) << "broker needs a non-zero budget";
}

MemoryBroker::~MemoryBroker() {
  MutexLock lock(mu_);
  HJ_CHECK(grants_.empty())
      << "MemoryBroker destroyed with grants outstanding";
}

uint64_t MemoryBroker::free_bytes() const {
  MutexLock lock(mu_);
  return free_;
}

uint64_t MemoryBroker::RevocableLocked() const {
  uint64_t surplus = 0;
  for (const MemoryGrant* g : grants_) {
    surplus += g->bytes() - g->min_bytes();
  }
  return surplus;
}

StatusOr<std::unique_ptr<MemoryGrant>> MemoryBroker::Acquire(
    uint64_t min_bytes, uint64_t desired_bytes, double timeout_seconds,
    GrantClass grant_class) {
  if (min_bytes == 0 || min_bytes > desired_bytes) {
    return Status::InvalidArgument(
        "grant needs 0 < min_bytes <= desired_bytes");
  }
  if (min_bytes > total_budget_) {
    return Status::ResourceExhausted(
        "grant minimum exceeds the broker's total budget");
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                timeout_seconds < 0 ? 0 : timeout_seconds));

  // Revokes to fire once the lock is dropped: (listener, new_bytes).
  std::vector<std::pair<std::function<void(uint64_t)>, uint64_t>> notify;
  std::unique_ptr<MemoryGrant> grant;
  {
    MutexLock lock(mu_);
    // Admission: wait until the minimum is coverable from free budget
    // plus other grants' revocable surplus. Written as an explicit
    // predicate loop (not a wait(lambda)) so the guarded reads of free_
    // and grants_ stay in this scope, which provably holds mu_.
    while (free_ + RevocableLocked() < min_bytes) {
      if (timeout_seconds == 0) {
        return Status::ResourceExhausted(
            "memory broker budget exhausted (non-blocking acquire)");
      }
      if (timeout_seconds < 0) {
        budget_cv_.Wait(lock);
      } else if (!budget_cv_.WaitUntil(lock, deadline) &&
                 free_ + RevocableLocked() < min_bytes) {
        return Status::DeadlineExceeded(
            "timed out waiting for a memory grant of " +
            std::to_string(min_bytes) + " bytes");
      }
    }

    // Take from free budget first — up to `desired`, no revocation.
    uint64_t take = std::min(free_, desired_bytes);
    free_ -= take;

    // Cover the rest of `min` by revoking surplus — kCache grants
    // first (cached tables are pure optimization; dropping them costs a
    // rebuild, not a spill), then kNormal, each largest-surplus-first
    // so the fewest queries are disturbed.
    while (take < min_bytes) {
      MemoryGrant* victim = nullptr;
      uint64_t best_surplus = 0;
      for (MemoryGrant* g : grants_) {
        if (g->grant_class() != GrantClass::kCache) continue;
        uint64_t surplus = g->bytes() - g->min_bytes();
        if (surplus > best_surplus) {
          best_surplus = surplus;
          victim = g;
        }
      }
      if (victim == nullptr) {
        for (MemoryGrant* g : grants_) {
          if (g->grant_class() != GrantClass::kNormal) continue;
          uint64_t surplus = g->bytes() - g->min_bytes();
          if (surplus > best_surplus) {
            best_surplus = surplus;
            victim = g;
          }
        }
        if (victim != nullptr) {
          // Ledger invariant: a kNormal cut with cache surplus left
          // would mean an active join paid for cache occupancy. The
          // selection order above makes this unreachable; the counter
          // is the proof the storm bench gates on.
          uint64_t cache_surplus = 0;
          for (const MemoryGrant* g : grants_) {
            if (g->grant_class() == GrantClass::kCache) {
              cache_surplus += g->bytes() - g->min_bytes();
            }
          }
          if (cache_surplus > 0) {
            normal_revokes_with_cache_surplus_.fetch_add(
                1, std::memory_order_relaxed);
          }
        }
      }
      HJ_CHECK(victim != nullptr) << "admission check promised surplus";
      uint64_t cut = std::min(best_surplus, min_bytes - take);
      if (victim->grant_class() == GrantClass::kCache) {
        cache_revoked_bytes_.fetch_add(cut, std::memory_order_relaxed);
      }
      uint64_t now_bytes = victim->bytes() - cut;
      victim->bytes_.store(now_bytes, std::memory_order_relaxed);
      uint64_t low = victim->low_watermark_.load(std::memory_order_relaxed);
      if (now_bytes < low) {
        victim->low_watermark_.store(now_bytes, std::memory_order_relaxed);
      }
      victim->revokes_.fetch_add(1, std::memory_order_relaxed);
      total_revokes_.fetch_add(1, std::memory_order_relaxed);
      {
        MutexLock llock(victim->listener_mu_);
        if (victim->revoke_listener_) {
          notify.emplace_back(victim->revoke_listener_, now_bytes);
        }
      }
      take += cut;
    }

    grant.reset(new MemoryGrant(this, take, min_bytes, desired_bytes,
                                grant_class));
    grants_.push_back(grant.get());
  }
  for (auto& [fn, new_bytes] : notify) fn(new_bytes);
  return grant;
}

void MemoryBroker::ReleaseGrant(MemoryGrant* grant) {
  MutexLock lock(mu_);
  auto it = std::find(grants_.begin(), grants_.end(), grant);
  HJ_CHECK(it != grants_.end()) << "double release of a memory grant";
  grants_.erase(it);
  free_ += grant->bytes();
  grant->bytes_.store(0, std::memory_order_relaxed);
  RedistributeLocked();
}

void MemoryBroker::RedistributeLocked() {
  // kNormal before kCache (active joins un-spill before the cache
  // re-inflates); within a class, oldest grant first — queries that
  // have waited (and spilled) longest get their memory back first.
  for (GrantClass cls : {GrantClass::kNormal, GrantClass::kCache}) {
    for (MemoryGrant* g : grants_) {
      if (free_ == 0) break;
      if (g->grant_class() != cls) continue;
      uint64_t want = g->desired_bytes() - g->bytes();
      if (want == 0) continue;
      uint64_t give = std::min(free_, want);
      free_ -= give;
      g->bytes_.fetch_add(give, std::memory_order_relaxed);
      g->regrows_.fetch_add(1, std::memory_order_relaxed);
      total_regrows_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  budget_cv_.NotifyAll();
}

}  // namespace hashjoin
