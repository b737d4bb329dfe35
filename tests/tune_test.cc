// Tests for the tuning subsystem (src/tune/): the PrefetchTuner
// feedback controller's state machine on simulated counter streams, the
// ChooseParams G/D invariants under randomized inputs (never a 0
// sentinel, never past the measured LFB ceiling), the LFB probe's
// structural guarantees, and the floor KernelParams puts under G and D.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "join/join_common.h"
#include "model/cost_model.h"
#include "tune/lfb_probe.h"
#include "tune/prefetch_tuner.h"

namespace hashjoin {
namespace {

// ---------------------------------------------------------------------------
// PrefetchTuner

tune::BatchReading Reading(uint64_t tuples, double cycles_per_tuple,
                           double misses_per_tuple = -1) {
  tune::BatchReading r;
  r.tuples = tuples;
  r.cycles = cycles_per_tuple * double(tuples);
  r.l1d_misses =
      misses_per_tuple >= 0 ? misses_per_tuple * double(tuples) : -1;
  return r;
}

TEST(PrefetchTuner, MonotoneRampWhileCostImproves) {
  tune::TunerConfig cfg;
  cfg.initial_depth = 2;
  cfg.max_depth = 64;
  cfg.warmup_batches = 1;
  tune::PrefetchTuner tuner(cfg);
  EXPECT_EQ(tuner.depth(), 2u);
  EXPECT_EQ(tuner.state(), tune::PrefetchTuner::State::kWarmup);

  // Cost strictly improves with depth: the ramp must follow the growth
  // schedule (2x below 8, then 1.5x: 2,4,8,12,18,27,40,60,64-cap) and
  // only converge at the cap.
  double cost = 100.0;
  std::vector<uint32_t> depths;
  while (tuner.state() != tune::PrefetchTuner::State::kConverged) {
    bool changed = tuner.OnBatch(Reading(1000, cost));
    cost *= 0.8;
    if (changed) depths.push_back(tuner.depth());
    ASSERT_LT(tuner.batches(), 20u) << "ramp failed to terminate";
  }
  const std::vector<uint32_t> want = {4, 8, 12, 18, 27, 40, 60, 64};
  EXPECT_EQ(depths, want);
  EXPECT_EQ(tuner.depth(), 64u);
  EXPECT_TRUE(tuner.converged());
}

TEST(PrefetchTuner, BacksOffToBestDepthOnCostRegression) {
  tune::TunerConfig cfg;
  cfg.initial_depth = 2;
  cfg.warmup_batches = 1;
  tune::PrefetchTuner tuner(cfg);

  // Concave cost curve with minimum at depth 8: warmup@2, then measured
  // costs 4->80, 8->70, 12->95 twice (regression + confirming retry)
  // => back off to 8.
  tuner.OnBatch(Reading(1000, 100));  // warmup baseline, ramp starts
  EXPECT_EQ(tuner.depth(), 4u);
  tuner.OnBatch(Reading(1000, 80));  // depth 4 good -> ramp to 8
  EXPECT_EQ(tuner.depth(), 8u);
  tuner.OnBatch(Reading(1000, 70));  // depth 8 best -> ramp to 12
  EXPECT_EQ(tuner.depth(), 12u);
  // First regressing batch only triggers the retry: depth holds.
  EXPECT_FALSE(tuner.OnBatch(Reading(1000, 95)));
  EXPECT_EQ(tuner.depth(), 12u);
  EXPECT_FALSE(tuner.converged());
  // Retry confirms the regression: back off to the best depth and hold.
  bool changed = tuner.OnBatch(Reading(1000, 95));
  EXPECT_TRUE(changed);
  EXPECT_EQ(tuner.depth(), 8u) << "must return to the best depth seen";
  EXPECT_TRUE(tuner.converged());
}

TEST(PrefetchTuner, BacksOffOnMissRegressionAlone) {
  tune::TunerConfig cfg;
  cfg.initial_depth = 2;
  cfg.warmup_batches = 1;
  cfg.miss_tolerance = 0.25;
  tune::PrefetchTuner tuner(cfg);

  // Cost holds flat but misses/tuple explode at depth 8 — the early
  // symptom of prefetched lines evicted before use. The controller must
  // back off on the miss signal without waiting for cost to collapse.
  tuner.OnBatch(Reading(1000, 100, 1.0));  // warmup baseline
  EXPECT_EQ(tuner.depth(), 4u);
  tuner.OnBatch(Reading(1000, 99, 1.0));  // depth 4 fine
  EXPECT_EQ(tuner.depth(), 8u);
  // Miss spike at depth 8, confirmed by the retry batch.
  EXPECT_FALSE(tuner.OnBatch(Reading(1000, 99, 2.0)));
  EXPECT_EQ(tuner.depth(), 8u);
  bool changed = tuner.OnBatch(Reading(1000, 99, 2.0));
  EXPECT_TRUE(changed);
  EXPECT_EQ(tuner.depth(), 4u);
  EXPECT_TRUE(tuner.converged());
}

TEST(PrefetchTuner, ConvergesOnSimulatedStreamAndTracksTrajectory) {
  tune::TunerConfig cfg;
  cfg.initial_depth = 2;
  cfg.warmup_batches = 1;
  tune::PrefetchTuner tuner(cfg);

  // Synthetic concave cost model with optimum at depth 17: the ramp
  // visits 2,4,8,12,18, sees the regression at 27 (confirmed by the
  // retry), and settles on 18 — the probed depth nearest the optimum.
  auto cost_at = [](uint32_t depth) {
    double d = double(depth);
    return 50.0 + (d - 17.0) * (d - 17.0);
  };
  for (int batch = 0; batch < 12; ++batch) {
    tuner.OnBatch(Reading(1000, cost_at(tuner.depth())));
  }
  EXPECT_TRUE(tuner.converged());
  EXPECT_EQ(tuner.depth(), 18u);
  // The trajectory records one sample per accepted batch, depths match
  // what the tuner held when each batch ran, and G/D are projections.
  ASSERT_EQ(tuner.trajectory().size(), 12u);
  for (const tune::TunerSample& s : tuner.trajectory()) {
    EXPECT_EQ(s.group_size, s.depth);
    EXPECT_GE(s.prefetch_distance, 1u);
    EXPECT_GT(s.cycles_per_tuple, 0.0);
  }
}

TEST(PrefetchTuner, LfbCeilingCapsTheRamp) {
  tune::TunerConfig cfg;
  cfg.initial_depth = 2;
  cfg.max_depth = 64;
  cfg.max_outstanding = 10;  // measured LFB ceiling below max_depth
  cfg.warmup_batches = 1;
  tune::PrefetchTuner tuner(cfg);
  double cost = 100.0;
  for (int batch = 0; batch < 10; ++batch) {
    tuner.OnBatch(Reading(1000, cost));
    cost *= 0.9;  // always improving: the only stop is the cap
    EXPECT_LE(tuner.depth(), 10u);
  }
  EXPECT_TRUE(tuner.converged());
  EXPECT_EQ(tuner.depth(), 10u);
}

TEST(PrefetchTuner, ConvergedDriftShrinksAfterPatienceAndReRamps) {
  tune::TunerConfig cfg;
  cfg.initial_depth = 8;
  cfg.max_depth = 8;  // converges immediately after warmup
  cfg.warmup_batches = 1;
  cfg.converged_patience = 2;
  tune::PrefetchTuner tuner(cfg);
  tuner.OnBatch(Reading(1000, 100));  // warmup -> converged (at cap)
  ASSERT_TRUE(tuner.converged());
  ASSERT_EQ(tuner.depth(), 8u);
  // One drifting batch: tolerated. Two in a row: halve and restart the
  // ramp (the controller must be able to climb back, not only shrink).
  EXPECT_FALSE(tuner.OnBatch(Reading(1000, 200)));
  EXPECT_EQ(tuner.depth(), 8u);
  EXPECT_TRUE(tuner.OnBatch(Reading(1000, 200)));
  EXPECT_EQ(tuner.depth(), 4u);
  EXPECT_EQ(tuner.state(), tune::PrefetchTuner::State::kRamp);
  // The new regime measures well at 4: the ramp probes upward again.
  tuner.OnBatch(Reading(1000, 150));
  EXPECT_EQ(tuner.depth(), 8u);
}

TEST(PrefetchTuner, ConvergedDepthHoldsUnderBatchNoise) {
  // Regression: comparing noisy batches against the minimum-ever cost
  // made ordinary +-10% jitter read as persistent drift, ratcheting a
  // converged depth down to 1 over a long run. The converged baseline
  // is now an EWMA and only the wider drift_tolerance moves the depth.
  tune::TunerConfig cfg;
  cfg.initial_depth = 8;
  cfg.max_depth = 8;
  cfg.warmup_batches = 1;
  tune::PrefetchTuner tuner(cfg);
  tuner.OnBatch(Reading(1000, 100));  // warmup -> converged at 8
  ASSERT_TRUE(tuner.converged());
  const double noisy[] = {92, 110, 95, 108, 90, 112, 97, 109, 93, 111};
  for (int round = 0; round < 5; ++round) {
    for (double cost : noisy) {
      EXPECT_FALSE(tuner.OnBatch(Reading(1000, cost)));
      EXPECT_EQ(tuner.depth(), 8u);
      EXPECT_TRUE(tuner.converged());
    }
  }
}

TEST(PrefetchTuner, IgnoresDegenerateReadings) {
  tune::PrefetchTuner tuner;
  EXPECT_FALSE(tuner.OnBatch(Reading(0, 100)));
  tune::BatchReading bad;
  bad.tuples = 100;
  bad.cycles = 0;
  EXPECT_FALSE(tuner.OnBatch(bad));
  EXPECT_EQ(tuner.batches(), 0u);
  EXPECT_TRUE(tuner.trajectory().empty());
}

TEST(PrefetchTuner, DepthNeverEscapesBounds) {
  // Randomized cost streams: whatever the readings, depth stays within
  // [min_depth, min(max_depth, max_outstanding)] and G/D are never 0.
  std::mt19937 rng(0xC0FFEE);
  std::uniform_real_distribution<double> cost(1.0, 1000.0);
  for (int trial = 0; trial < 50; ++trial) {
    tune::TunerConfig cfg;
    cfg.initial_depth = uint32_t(1 + rng() % 32);
    cfg.min_depth = uint32_t(1 + rng() % 4);
    cfg.max_depth = uint32_t(1 + rng() % 64);
    cfg.max_outstanding =
        rng() % 3 == 0 ? 0 : uint32_t(1 + rng() % 24);
    cfg.stages_k = uint32_t(1 + rng() % 4);
    tune::PrefetchTuner tuner(cfg);
    uint32_t cap = cfg.max_depth;
    if (cfg.max_outstanding > 0) {
      cap = std::min(cap, cfg.max_outstanding);
    }
    cap = std::max(cap, std::max(1u, cfg.min_depth));
    for (int batch = 0; batch < 40; ++batch) {
      tuner.OnBatch(Reading(1000, cost(rng)));
      EXPECT_GE(tuner.depth(), std::max(1u, cfg.min_depth));
      EXPECT_LE(tuner.depth(), cap);
      EXPECT_GE(tuner.group_size(), 1u);
      EXPECT_GE(tuner.prefetch_distance(), 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// ChooseParams property test: G/D invariants under randomized inputs

TEST(ChooseParamsProperty, NeverZeroAndNeverPastLfbCeiling) {
  std::mt19937 rng(0x5EED);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint32_t k = uint32_t(1 + rng() % 4);
    std::vector<uint32_t> stage_costs(k + 1);
    for (uint32_t& c : stage_costs) {
      c = uint32_t(rng() % 64);  // 0 allowed: the infeasible sentinel path
    }
    model::CodeCosts costs{stage_costs};
    model::MachineParams m{uint32_t(1 + rng() % 2000),
                           uint32_t(1 + rng() % 64),
                           rng() % 3 == 0 ? 0 : uint32_t(1 + rng() % 32)};
    const uint32_t fallback_g = uint32_t(1 + rng() % 64);
    const uint32_t fallback_d = uint32_t(1 + rng() % 16);
    model::ParamChoice choice =
        model::ChooseParams(costs, m, fallback_g, fallback_d);

    ASSERT_GE(choice.group_size, 1u)
        << "G=0 sentinel escaped ChooseParams (trial " << trial << ")";
    ASSERT_GE(choice.prefetch_distance, 1u)
        << "D=0 sentinel escaped ChooseParams (trial " << trial << ")";
    if (m.max_outstanding > 0) {
      const uint32_t cap = std::max(1u, m.max_outstanding);
      ASSERT_LE(choice.group_size, cap)
          << "G exceeds the measured LFB ceiling (trial " << trial << ")";
      const uint32_t dcap =
          std::max(1u, cap / std::max(1u, costs.k()));
      ASSERT_LE(choice.prefetch_distance, dcap)
          << "k*D exceeds the measured LFB ceiling (trial " << trial
          << ")";
    }
  }
}

TEST(ChooseParams, LfbClampFlagsSetOnlyWhenClamping) {
  // Feasible theorem output above the ceiling: the clamp must engage and
  // say so.
  model::CodeCosts costs{{2, 2, 2}};
  model::MachineParams m{1000, 4, /*max_outstanding=*/6};
  model::ParamChoice choice = model::ChooseParams(costs, m);
  EXPECT_LE(choice.group_size, 6u);
  EXPECT_TRUE(choice.group_lfb_clamped);
  EXPECT_LE(choice.prefetch_distance, 3u);  // k=2 -> cap 6/2

  // Generous ceiling: no clamp, flags stay false.
  model::MachineParams open{150, 10, /*max_outstanding=*/1024};
  model::ParamChoice unclamped = model::ChooseParams(costs, open);
  EXPECT_FALSE(unclamped.group_lfb_clamped);
  EXPECT_FALSE(unclamped.swp_lfb_clamped);

  // Unknown ceiling (0): clamp disabled entirely.
  model::MachineParams unknown{1000, 4, /*max_outstanding=*/0};
  model::ParamChoice free_choice = model::ChooseParams(costs, unknown);
  EXPECT_FALSE(free_choice.group_lfb_clamped);
  EXPECT_FALSE(free_choice.swp_lfb_clamped);
}

// ---------------------------------------------------------------------------
// LFB probe: structural guarantees on a tiny, fast configuration

TEST(LfbProbe, SmallProbeProducesConsistentCurve) {
  tune::LfbProbeOptions opt;
  opt.buffer_bytes = 8ull << 20;  // big enough to miss, small enough fast
  opt.steps_per_chain = 10'000;
  opt.max_chains = 8;
  opt.repeats = 2;
  tune::LfbProbeResult r = tune::ProbeLfbConcurrency(opt);

  ASSERT_EQ(r.throughput.size(), 8u);
  for (double t : r.throughput) EXPECT_GT(t, 0.0);
  EXPECT_GT(r.single_chain_ns, 0.0);
  // best_throughput is the max of the curve.
  double max_tp = 0;
  for (double t : r.throughput) max_tp = std::max(max_tp, t);
  EXPECT_DOUBLE_EQ(r.best_throughput, max_tp);
  // The knee, when reported, indexes into the probed K range.
  EXPECT_LE(r.max_outstanding, 8u);
  if (r.max_outstanding > 0) {
    EXPECT_GE(r.throughput[r.max_outstanding - 1],
              opt.knee_fraction * max_tp);
  }
  // Unknown exactly when the single chain ran cache-fast.
  EXPECT_EQ(r.max_outstanding == 0,
            r.single_chain_ns < opt.min_single_chain_ns);
}

TEST(LfbProbe, CacheResidentBufferReportsUnknown) {
  // An L1/L2-resident chase: ~2 ns per step, throughput still climbing
  // with K because the chases bound on the core, not on fill buffers.
  // The probe must refuse to report a ceiling rather than fabricate one
  // from cache bandwidth.
  tune::LfbProbeOptions opt;
  tune::LfbProbeResult r =
      tune::SummarizeLfbCurve(2.0, {0.5, 1.0, 1.5, 2.0}, opt);
  EXPECT_EQ(r.max_outstanding, 0u);
  EXPECT_DOUBLE_EQ(r.best_throughput, 2.0);
}

TEST(LfbProbe, KneeIsTheFirstKReachingTheKneeFraction) {
  // DRAM-latency chain; throughput scales to K = 6, then flattens.
  tune::LfbProbeOptions opt;
  std::vector<double> curve = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06};
  for (int k = 0; k < 4; ++k) curve.push_back(0.061);
  tune::LfbProbeResult r = tune::SummarizeLfbCurve(90.0, curve, opt);
  // 0.9 * 0.061 = 0.0549: K = 6 is the first to reach it.
  EXPECT_EQ(r.max_outstanding, 6u);
  EXPECT_DOUBLE_EQ(r.best_throughput, 0.061);
  // At the refusal threshold itself the curve is trusted.
  EXPECT_EQ(tune::SummarizeLfbCurve(opt.min_single_chain_ns, curve, opt)
                .max_outstanding,
            6u);
  // A flat curve has its knee at K = 1.
  EXPECT_EQ(tune::SummarizeLfbCurve(90.0, {0.2, 0.2, 0.2}, opt)
                .max_outstanding,
            1u);
}

// ---------------------------------------------------------------------------
// KernelParams floor

TEST(LiveTuning, NeverZeroEvenWithDegenerateStatics) {
  KernelParams params;
  params.group_size = 0;  // misconfigured statics
  params.prefetch_distance = 0;
  EXPECT_EQ(params.EffectiveGroupSize(), 1u);
  EXPECT_EQ(params.EffectiveDistance(), 1u);
}

}  // namespace
}  // namespace hashjoin
