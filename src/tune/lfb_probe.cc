#include "tune/lfb_probe.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace hashjoin {
namespace tune {
namespace {

constexpr size_t kLineBytes = 64;
constexpr uint32_t kMaxChains = 32;

// One cache-line-sized chase node, same shape as CalibrateMachine's: the
// next-pointer is the only live word, so every step is a full-line miss.
struct alignas(kLineBytes) ChaseNode {
  ChaseNode* next;
  uint8_t pad[kLineBytes - sizeof(ChaseNode*)];
};

// K simultaneous dependent chases. K is a template parameter so the K
// cursors live in registers and the loop body is just K independent
// loads per step — the measured parallelism is exactly K outstanding
// misses, not K plus cursor-array traffic.
template <uint32_t K>
ChaseNode* ChaseK(ChaseNode* const* start, uint64_t steps) {
  ChaseNode* cur[K];
  for (uint32_t k = 0; k < K; ++k) cur[k] = start[k];
  for (uint64_t i = 0; i < steps; ++i) {
    for (uint32_t k = 0; k < K; ++k) cur[k] = cur[k]->next;
  }
  ChaseNode* sink = nullptr;
  for (uint32_t k = 0; k < K; ++k) {
    sink = (sink < cur[k]) ? cur[k] : sink;
  }
  return sink;
}

ChaseNode* RunChase(uint32_t chains, ChaseNode* const* start,
                    uint64_t steps) {
  switch (chains) {
#define HJ_LFB_CASE(K) \
  case K:              \
    return ChaseK<K>(start, steps);
    HJ_LFB_CASE(1)
    HJ_LFB_CASE(2)
    HJ_LFB_CASE(3)
    HJ_LFB_CASE(4)
    HJ_LFB_CASE(5)
    HJ_LFB_CASE(6)
    HJ_LFB_CASE(7)
    HJ_LFB_CASE(8)
    HJ_LFB_CASE(9)
    HJ_LFB_CASE(10)
    HJ_LFB_CASE(11)
    HJ_LFB_CASE(12)
    HJ_LFB_CASE(13)
    HJ_LFB_CASE(14)
    HJ_LFB_CASE(15)
    HJ_LFB_CASE(16)
    HJ_LFB_CASE(17)
    HJ_LFB_CASE(18)
    HJ_LFB_CASE(19)
    HJ_LFB_CASE(20)
    HJ_LFB_CASE(21)
    HJ_LFB_CASE(22)
    HJ_LFB_CASE(23)
    HJ_LFB_CASE(24)
    HJ_LFB_CASE(25)
    HJ_LFB_CASE(26)
    HJ_LFB_CASE(27)
    HJ_LFB_CASE(28)
    HJ_LFB_CASE(29)
    HJ_LFB_CASE(30)
    HJ_LFB_CASE(31)
    HJ_LFB_CASE(32)
#undef HJ_LFB_CASE
    default:
      HJ_LOG(Fatal) << "LFB probe chain count out of range: " << chains;
      return nullptr;
  }
}

}  // namespace

LfbProbeResult SummarizeLfbCurve(double single_chain_ns,
                                 std::vector<double> throughput,
                                 const LfbProbeOptions& options) {
  LfbProbeResult result;
  result.single_chain_ns = single_chain_ns;
  result.throughput = std::move(throughput);
  if (result.throughput.empty()) return result;
  result.best_throughput =
      *std::max_element(result.throughput.begin(), result.throughput.end());
  if (single_chain_ns < options.min_single_chain_ns) return result;
  const double knee = options.knee_fraction * result.best_throughput;
  for (size_t k = 0; k < result.throughput.size(); ++k) {
    if (result.throughput[k] >= knee) {
      result.max_outstanding = uint32_t(k + 1);
      break;
    }
  }
  return result;
}

LfbProbeResult ProbeLfbConcurrency(const LfbProbeOptions& options) {
  const uint32_t max_chains =
      std::min(std::max(options.max_chains, 1u), kMaxChains);
  const uint64_t num_nodes = std::max<uint64_t>(
      options.buffer_bytes / sizeof(ChaseNode), 4 * max_chains);

  // Sattolo's algorithm: one cycle through all nodes (same seed family
  // as CalibrateMachine so layouts are reproducible run to run).
  std::vector<ChaseNode> nodes(num_nodes);
  std::vector<uint64_t> order(num_nodes);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(0x1FBC0DE);
  for (uint64_t i = num_nodes - 1; i > 0; --i) {
    uint64_t j = rng.NextBounded(i);  // j in [0, i)
    std::swap(order[i], order[j]);
  }
  for (uint64_t i = 0; i < num_nodes; ++i) {
    nodes[order[i]].next = &nodes[order[(i + 1) % num_nodes]];
  }

  // Start cursors evenly spaced along the cycle so the K chases never
  // converge onto shared lines within a measurement window.
  std::vector<ChaseNode*> start(max_chains);
  const uint64_t steps = std::max<uint64_t>(options.steps_per_chain, 1024);
  const int repeats = std::max(options.repeats, 1);

  std::vector<double> throughput(max_chains, 0.0);
  double single_chain_ns = 0;
  ChaseNode* sink = nullptr;
  for (uint32_t chains = 1; chains <= max_chains; ++chains) {
    for (uint32_t k = 0; k < chains; ++k) {
      start[k] = &nodes[order[(uint64_t(k) * num_nodes) / chains]];
    }
    double best_ns = 0;
    for (int r = 0; r < repeats; ++r) {
      WallTimer timer;
      sink = RunChase(chains, start.data(), steps);
      double ns = double(timer.ElapsedNanos());
      if (r == 0 || ns < best_ns) best_ns = ns;
    }
    throughput[chains - 1] =
        double(steps) * double(chains) / std::max(best_ns, 1.0);
    if (chains == 1) single_chain_ns = best_ns / double(steps);
  }
  if (sink == nullptr) HJ_LOG(Fatal) << "LFB probe lost its cursors";
  return SummarizeLfbCurve(single_chain_ns, std::move(throughput), options);
}

}  // namespace tune
}  // namespace hashjoin
