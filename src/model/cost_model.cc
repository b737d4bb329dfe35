#include "model/cost_model.h"

#include <algorithm>

#include "util/bitops.h"
#include "util/logging.h"

namespace hashjoin {
namespace model {

namespace {
uint64_t MaxU(uint64_t a, uint64_t b) { return a > b ? a : b; }
}  // namespace

bool GroupPrefetchModel::ConditionHolds(const CodeCosts& costs,
                                        const MachineParams& machine,
                                        uint32_t group) {
  HJ_CHECK(costs.c.size() >= 2) << "need at least C0 and C1 (k >= 1)";
  if (group < 2) return false;
  uint64_t g1 = group - 1;
  if (g1 * costs.c[0] < machine.full_latency) return false;
  for (size_t i = 1; i < costs.c.size(); ++i) {
    uint64_t per = std::max<uint64_t>(costs.c[i], machine.bandwidth_gap);
    if (g1 * per < machine.full_latency) return false;
  }
  return true;
}

uint32_t GroupPrefetchModel::MinGroupSize(const CodeCosts& costs,
                                          const MachineParams& machine,
                                          uint32_t max_group) {
  for (uint32_t g = 2; g <= max_group; ++g) {
    if (ConditionHolds(costs, machine, g)) return g;
  }
  return 0;
}

uint64_t GroupPrefetchModel::CriticalPathCycles(const CodeCosts& costs,
                                                const MachineParams& machine,
                                                uint32_t group,
                                                uint64_t num_elements,
                                                uint32_t prefetch_issue_cost) {
  HJ_CHECK(group >= 1);
  const uint32_t k = costs.k();
  // Evaluates Figure 4's DAG for one group of size g, returning its span.
  auto group_span = [&](uint32_t g) -> uint64_t {
    std::vector<uint64_t> prefetch_done(g, 0);  // P vertex time, prev row
    uint64_t t = 0;
    // Row 0: code 0 + prefetch issue per element; no visits.
    for (uint32_t x = 0; x < g; ++x) {
      t += costs.c[0] + prefetch_issue_cost;
      prefetch_done[x] = t;
    }
    // Rows 1..k: visit m_l, run code l, prefetch m_{l+1} (except row k).
    for (uint32_t l = 1; l <= k; ++l) {
      uint64_t last_visit = 0;
      bool have_last_visit = false;
      for (uint32_t x = 0; x < g; ++x) {
        uint64_t start = MaxU(t, prefetch_done[x] + machine.full_latency);
        if (have_last_visit) {
          start = MaxU(start, last_visit + machine.bandwidth_gap);
        }
        last_visit = start;
        have_last_visit = true;
        uint32_t code = costs.c[l] + (l < k ? prefetch_issue_cost : 0);
        t = start + code;
        prefetch_done[x] = t;
      }
    }
    return t;
  };

  uint64_t full_groups = num_elements / group;
  uint64_t rest = num_elements % group;
  uint64_t total = 0;
  if (full_groups > 0) total += full_groups * group_span(group);
  if (rest > 0) total += group_span(uint32_t(rest));
  return total;
}

bool SwpPrefetchModel::ConditionHolds(const CodeCosts& costs,
                                      const MachineParams& machine,
                                      uint32_t distance) {
  HJ_CHECK(costs.c.size() >= 2);
  if (distance < 1) return false;
  const uint32_t k = costs.k();
  uint64_t row = std::max<uint64_t>(costs.c[0] + costs.c[k],
                                    machine.bandwidth_gap);
  for (uint32_t i = 1; i + 1 <= k; ++i) {
    row += std::max<uint64_t>(costs.c[i], machine.bandwidth_gap);
  }
  return uint64_t(distance) * row >= machine.full_latency;
}

uint32_t SwpPrefetchModel::MinDistance(const CodeCosts& costs,
                                       const MachineParams& machine,
                                       uint32_t max_distance) {
  for (uint32_t d = 1; d <= max_distance; ++d) {
    if (ConditionHolds(costs, machine, d)) return d;
  }
  return 0;
}

uint32_t SwpPrefetchModel::StateArraySize(uint32_t k, uint32_t distance) {
  return uint32_t(PipelineRing(k, distance).size);
}

uint64_t SwpPrefetchModel::CriticalPathCycles(const CodeCosts& costs,
                                              const MachineParams& machine,
                                              uint32_t distance,
                                              uint64_t num_elements,
                                              uint32_t prefetch_issue_cost) {
  HJ_CHECK(distance >= 1);
  const uint32_t k = costs.k();
  const uint64_t n = num_elements;
  if (n == 0) return 0;
  // prefetch_done[l][i]: completion of the prefetch for m_{l+1} of
  // element i, issued at the end of its stage-l code.
  std::vector<std::vector<uint64_t>> prefetch_done(
      k, std::vector<uint64_t>(n, 0));
  uint64_t t = 0;
  uint64_t last_visit = 0;
  bool have_last_visit = false;
  // Iteration j runs stage 0 of element j, stage l of element j - l*D.
  uint64_t last_iter = (n - 1) + uint64_t(k) * distance;
  for (uint64_t j = 0; j <= last_iter; ++j) {
    if (j < n) {
      t += costs.c[0] + prefetch_issue_cost;
      prefetch_done[0][j] = t;
    }
    for (uint32_t l = 1; l <= k; ++l) {
      uint64_t delay = uint64_t(l) * distance;
      if (j < delay) break;
      uint64_t e = j - delay;
      if (e >= n) continue;
      uint64_t start =
          MaxU(t, prefetch_done[l - 1][e] + machine.full_latency);
      if (have_last_visit) {
        start = MaxU(start, last_visit + machine.bandwidth_gap);
      }
      last_visit = start;
      have_last_visit = true;
      uint32_t code = costs.c[l] + (l < k ? prefetch_issue_cost : 0);
      t = start + code;
      if (l < k) prefetch_done[l][e] = t;
    }
  }
  return t;
}

ParamChoice ChooseParams(const CodeCosts& costs, const MachineParams& machine,
                         uint32_t fallback_group, uint32_t fallback_distance,
                         uint32_t max_group, uint32_t max_distance) {
  ParamChoice choice;
  uint32_t g =
      GroupPrefetchModel::MinGroupSize(costs, machine, max_group);
  choice.group_feasible = g != 0;
  if (g == 0) {
    HJ_LOG_ONCE(Warning)
        << "Theorem 1 has no feasible group size <= " << max_group
        << " for T=" << machine.full_latency << " (C0=" << costs.c[0]
        << "); falling back to G=" << fallback_group
        << " (further occurrences suppressed)";
    g = fallback_group;
  }
  uint32_t d =
      SwpPrefetchModel::MinDistance(costs, machine, max_distance);
  choice.swp_feasible = d != 0;
  if (d == 0) {
    HJ_LOG_ONCE(Warning)
        << "Theorem 2 has no feasible prefetch distance <= " << max_distance
        << " for T=" << machine.full_latency << "; falling back to D="
        << fallback_distance << " (further occurrences suppressed)";
    d = fallback_distance;
  }
  // The LFB/MSHR ceiling overrides the theorems: depths the memory system
  // cannot sustain only queue prefetches behind full fill buffers.
  if (machine.max_outstanding > 0) {
    const uint32_t cap = std::max(1u, machine.max_outstanding);
    if (g > cap) {
      g = cap;
      choice.group_lfb_clamped = true;
    }
    const uint32_t dcap = std::max(1u, cap / std::max(1u, costs.k()));
    if (d > dcap) {
      d = dcap;
      choice.swp_lfb_clamped = true;
    }
  }
  choice.group_size = g;
  choice.prefetch_distance = d;
  return choice;
}

uint64_t BaselineCycles(const CodeCosts& costs, const MachineParams& machine,
                        uint64_t num_elements) {
  uint64_t per = 0;
  for (uint32_t c : costs.c) per += c;
  per += uint64_t(costs.k()) * machine.full_latency;
  return per * num_elements;
}

}  // namespace model
}  // namespace hashjoin
