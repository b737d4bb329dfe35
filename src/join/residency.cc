#include "join/residency.h"

#include <utility>

#include "hash/hash_table.h"
#include "util/logging.h"

namespace hashjoin {

PartitionResidency::PartitionResidency(uint32_t num_partitions,
                                       uint32_t page_size, bool resident)
    : parts_(num_partitions), page_size_(page_size) {
  HJ_CHECK(num_partitions >= 1);
  for (PartState& ps : parts_) ps.resident = resident;
}

void PartitionResidency::AddPage(uint32_t p, PageBuffer page,
                                 uint64_t tuples) {
  PartState& ps = parts_[p];
  HJ_CHECK(ps.resident) << "AddPage on a spilled partition";
  ps.pages.push_back(std::move(page));
  ps.tuples += tuples;
}

uint64_t PartitionResidency::ResidentBytes() const {
  uint64_t total = 0;
  for (uint32_t p = 0; p < parts_.size(); ++p) {
    if (parts_[p].resident) total += PartitionCost(p);
  }
  return total;
}

uint64_t PartitionResidency::PartitionCost(uint32_t p) const {
  const PartState& ps = parts_[p];
  if (ps.tuples == 0 && ps.pages.empty()) return 0;
  return ps.pages.size() * uint64_t(page_size_) +
         HashTable::EstimateBytes(ps.tuples);
}

int PartitionResidency::PickVictim(uint64_t needed) const {
  int best = -1;
  bool best_sufficient = false;
  uint64_t best_tuples = 0;
  uint64_t best_cost = 0;
  for (uint32_t p = 0; p < parts_.size(); ++p) {
    const PartState& ps = parts_[p];
    if (!ps.resident || ps.pages.empty()) continue;
    const uint64_t cost = PartitionCost(p);
    const bool sufficient = cost >= needed;
    bool take;
    if (best < 0) {
      take = true;
    } else if (sufficient != best_sufficient) {
      // A single victim that frees enough beats any that does not.
      take = sufficient;
    } else if (sufficient) {
      // Among sufficient victims, lose the fewest in-memory tuples.
      take = ps.tuples < best_tuples;
    } else {
      // No single victim suffices: take the biggest step toward the
      // target so the fewest partitions get evicted overall.
      take = cost > best_cost;
    }
    if (take) {
      best = int(p);
      best_sufficient = sufficient;
      best_tuples = ps.tuples;
      best_cost = cost;
    }
  }
  return best;
}

std::vector<PageBuffer> PartitionResidency::Evict(uint32_t p) {
  PartState& ps = parts_[p];
  HJ_CHECK(ps.resident) << "Evict on an already-spilled partition";
  ps.resident = false;
  ps.spill_seq = next_spill_seq_++;
  return std::move(ps.pages);
}

int PartitionResidency::LastSpilled() const {
  int best = -1;
  uint64_t best_seq = 0;
  for (uint32_t p = 0; p < parts_.size(); ++p) {
    const PartState& ps = parts_[p];
    if (ps.resident) continue;
    if (ps.spill_seq > best_seq) {
      best_seq = ps.spill_seq;
      best = int(p);
    }
  }
  return best;
}

void PartitionResidency::Readmit(uint32_t p, std::vector<PageBuffer> pages,
                                 uint64_t tuples) {
  PartState& ps = parts_[p];
  HJ_CHECK(!ps.resident) << "Readmit on a resident partition";
  ps.resident = true;
  ps.pages = std::move(pages);
  ps.tuples = tuples;
}

}  // namespace hashjoin
