#ifndef HASHJOIN_TUNE_LFB_PROBE_H_
#define HASHJOIN_TUNE_LFB_PROBE_H_

#include <cstdint>
#include <vector>

namespace hashjoin {
namespace tune {

/// Options for ProbeLfbConcurrency. The defaults walk a 64MB working set
/// (beyond any LLC, like CalibrateMachine's chase buffer) with enough
/// steps per chain that the fixed-cost setup is amortized away.
struct LfbProbeOptions {
  uint64_t buffer_bytes = 64ull << 20;
  uint64_t steps_per_chain = 100'000;  // dependent loads per cursor
  uint32_t max_chains = 24;            // largest K tried (capped at 32)
  int repeats = 3;                     // timing windows; fastest wins
  /// K is the knee when its throughput first reaches this fraction of
  /// the best observed throughput across all K.
  double knee_fraction = 0.9;
  /// If the single-chain latency per step is below this, the buffer was
  /// cache-resident (or latency-hidden some other way) and the probe
  /// cannot see the fill-buffer ceiling; max_outstanding is reported 0.
  double min_single_chain_ns = 15.0;
};

/// Result of the outstanding-miss concurrency probe.
struct LfbProbeResult {
  /// Measured number of misses the core keeps in flight before extra
  /// parallel chases stop adding throughput (the LFB/MSHR knee).
  /// 0 = unknown: the probe judged its own measurement unreliable.
  uint32_t max_outstanding = 0;
  double single_chain_ns = 0;      // per-step latency at K = 1
  double best_throughput = 0;      // lines per ns at the best K
  std::vector<double> throughput;  // lines per ns; index i is K = i+1
};

/// Reads the knee off a measured curve (`throughput[i]` at K = i+1):
/// max_outstanding is the first K whose throughput reaches
/// `knee_fraction` of the best, or 0 (unknown) when the single chain ran
/// faster than `min_single_chain_ns` — the buffer was cache-resident,
/// the chases bound on the core rather than on fill buffers, and a knee
/// would measure cache bandwidth. Pure, so the decision is testable on
/// synthetic curves.
LfbProbeResult SummarizeLfbCurve(double single_chain_ns,
                                 std::vector<double> throughput,
                                 const LfbProbeOptions& options);

/// Measures per-core memory-level parallelism by timing K independent
/// pointer chases over one shared Sattolo cycle, for K = 1..max_chains.
/// Each chase is serially dependent, so K is exactly the number of
/// outstanding misses; aggregate throughput scales with K until the load
/// fill buffers / MSHRs are exhausted, then flattens. The knee of that
/// curve is the real ceiling on useful prefetch depth — Theorems 1 and 2
/// only bound the depth needed to hide latency, not what the memory
/// system can sustain. Deterministic layout (fixed-seed permutation);
/// wall-clock noise is bounded by taking the fastest of `repeats`.
LfbProbeResult ProbeLfbConcurrency(const LfbProbeOptions& options = {});

}  // namespace tune
}  // namespace hashjoin

#endif  // HASHJOIN_TUNE_LFB_PROBE_H_
