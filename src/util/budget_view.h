#ifndef HASHJOIN_UTIL_BUDGET_VIEW_H_
#define HASHJOIN_UTIL_BUDGET_VIEW_H_

#include <atomic>
#include <cstdint>

namespace hashjoin {

/// A read-only view of a live memory budget: the atomic byte count a
/// MemoryGrant keeps current as the broker revokes and re-grows it.
///
/// An empty view means there is no live budget, and bytes() reads 0 —
/// callers fall back to their static budget. Reading a non-empty view is
/// one relaxed atomic load: no lock, no call into foreign code, so a
/// holder may read it inside its own critical section. The view is a
/// plain pointer (trivially copyable), so nothing can hide behind it.
/// The atomic must outlive every copy of the view.
class BudgetView {
 public:
  constexpr BudgetView() = default;
  constexpr explicit BudgetView(const std::atomic<uint64_t>* bytes)
      : bytes_(bytes) {}

  explicit operator bool() const { return bytes_ != nullptr; }

  /// Live budget in bytes; 0 for an empty view.
  uint64_t bytes() const {
    return bytes_ == nullptr ? 0 : bytes_->load(std::memory_order_relaxed);
  }

 private:
  const std::atomic<uint64_t>* bytes_ = nullptr;
};

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_BUDGET_VIEW_H_
