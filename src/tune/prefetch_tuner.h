#ifndef HASHJOIN_TUNE_PREFETCH_TUNER_H_
#define HASHJOIN_TUNE_PREFETCH_TUNER_H_

#include <cstdint>
#include <vector>

#include "util/fields.h"

namespace hashjoin {
namespace tune {

/// Configuration of the online depth controller.
struct TunerConfig {
  uint32_t initial_depth = 2;   // conservative slow-start depth
  uint32_t min_depth = 1;
  uint32_t max_depth = 64;      // further clamped by max_outstanding
  /// Measured LFB/MSHR ceiling (Calibration::max_outstanding); 0 means
  /// unknown, in which case only max_depth bounds the ramp.
  uint32_t max_outstanding = 0;
  /// Number of dependent references per element (CodeCosts::k()); maps
  /// depth to a prefetch distance D with k*D lines in flight.
  uint32_t stages_k = 3;
  uint32_t warmup_batches = 1;  // readings discarded before ramping
  /// Cost-per-tuple growth (relative to the best seen) tolerated before
  /// the ramp backs off to the best depth.
  double cost_tolerance = 0.05;
  /// L1D-miss-per-tuple growth tolerated before backing off. Misses per
  /// tuple rising while cycles hold is the early symptom of prefetched
  /// lines being evicted before use (§4.2's conflict-miss argument).
  double miss_tolerance = 0.25;
  /// Backend-stalled-cycles-per-tuple growth tolerated before backing
  /// off. Stall cycles rising while total cycles hold means the extra
  /// prefetch depth is saturating the memory subsystem (LFB contention)
  /// without yet showing up in end-to-end cost — the same early-warning
  /// role as `miss_tolerance`, from the other side of the cache.
  double stall_tolerance = 0.25;
  /// Cost growth relative to the converged baseline treated as workload
  /// drift rather than batch noise. Deliberately much wider than
  /// `cost_tolerance`: after convergence the baseline is held for the
  /// rest of the run, and reacting to ordinary run-to-run jitter would
  /// ratchet the depth down batch by batch.
  double drift_tolerance = 0.25;
  /// Consecutive drifting batches tolerated after convergence before
  /// the depth is halved and the ramp restarted (workload drift).
  uint32_t converged_patience = 2;
};

/// One batch's worth of live counter readings. `cycles` may be PMU
/// cycles or a wall-clock-derived estimate — the controller only
/// compares readings against each other, so any consistent unit works.
struct BatchReading {
  uint64_t tuples = 0;
  double cycles = 0;
  double l1d_misses = -1;      // < 0: counter unavailable this batch
  double stalled_cycles = -1;  // < 0: counter unavailable this batch
};

/// One trajectory entry: what the tuner held while a batch ran and what
/// the batch measured. Serialized into bench JSON records so sweeps can
/// plot online convergence against the offline-best depth.
struct TunerSample {
  uint32_t batch = 0;
  uint32_t depth = 0;
  uint32_t group_size = 0;
  uint32_t prefetch_distance = 0;
  double cycles_per_tuple = 0;
  double misses_per_tuple = -1;  // < 0: unavailable
  double stalls_per_tuple = -1;  // < 0: unavailable

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("batch", &TunerSample::batch);
    v("depth", &TunerSample::depth);
    v("G", &TunerSample::group_size);
    v("D", &TunerSample::prefetch_distance);
    v("cycles_per_tuple", &TunerSample::cycles_per_tuple);
    v("misses_per_tuple", &TunerSample::misses_per_tuple);
    v("stalls_per_tuple", &TunerSample::stalls_per_tuple);
  }
};

/// Online feedback controller for prefetch depth, in the style of SMOL's
/// adaptive slow-start: begin at a conservative depth, grow it (2x while
/// below 8, then 1.5x — real optima sit at moderate depth and doubling
/// past 8 jumps over them) while per-batch cost does not regress, and
/// back off to the best depth observed once a regression is confirmed by
/// a retry batch (one noisy reading must not end the ramp), then hold.
/// While holding, the baseline is
/// tracked as an EWMA (noise-robust, unlike a minimum-ever) and only a
/// persistent excursion past the much wider `drift_tolerance` is
/// treated as workload drift: the depth is halved and the ramp
/// restarted, so the controller can climb back up if the halving was
/// wrong. Deterministic: state
/// advances only on OnBatch(), never on wall-clock time, so a recorded
/// counter stream replays to identical decisions.
///
/// The depth is one scalar; G and D are projections of it (G = depth,
/// D = depth / k floored at 1) so group and pipelined kernels ramp
/// together and both respect the same outstanding-miss budget.
class PrefetchTuner {
 public:
  enum class State { kWarmup, kRamp, kConverged };

  explicit PrefetchTuner(const TunerConfig& config = {});

  /// Feeds one batch's counters. Returns true if the depth changed, in
  /// which case the caller should republish group_size()/
  /// prefetch_distance() to its kernels. Batches with tuples == 0 or
  /// cycles <= 0 are ignored (no state advance).
  bool OnBatch(const BatchReading& reading);

  uint32_t depth() const { return depth_; }
  uint32_t group_size() const;
  uint32_t prefetch_distance() const;
  State state() const { return state_; }
  bool converged() const { return state_ == State::kConverged; }
  uint32_t batches() const { return batch_; }
  const std::vector<TunerSample>& trajectory() const { return trajectory_; }
  const TunerConfig& config() const { return config_; }

 private:
  uint32_t DepthCap() const;
  bool SetDepth(uint32_t depth);

  TunerConfig config_;
  State state_ = State::kWarmup;
  uint32_t depth_ = 1;
  uint32_t batch_ = 0;
  uint32_t warmup_seen_ = 0;
  uint32_t best_depth_ = 1;
  double best_cost_ = -1;   // < 0: no baseline yet
  double best_miss_ = -1;   // < 0: no miss baseline
  double best_stall_ = -1;  // < 0: no stall baseline
  bool ramp_retried_ = false;  // current depth already got its retry batch
  uint32_t converged_regressions_ = 0;
  std::vector<TunerSample> trajectory_;
};

}  // namespace tune
}  // namespace hashjoin

#endif  // HASHJOIN_TUNE_PREFETCH_TUNER_H_
