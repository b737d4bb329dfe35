// Cross-validation of the generalized models (§4.2/§5.1) against the
// memory-hierarchy simulator: a synthetic workload of N independent
// elements, each making k dependent memory references split by code
// stages (exactly Figure 3(c)'s structure), is executed through the
// simulator with the baseline, group-prefetching, and software-pipelined
// loop shapes, and the measured cycles are compared with the models'
// critical-path predictions.

#include <vector>

#include "gtest/gtest.h"
#include "join/coro_kernels.h"
#include "mem/memory_model.h"
#include "model/cost_model.h"
#include "simcache/memory_sim.h"
#include "util/aligned.h"
#include "util/bitops.h"
#include "util/random.h"

namespace hashjoin {
namespace {

constexpr uint32_t kK = 3;        // dependent references per element
constexpr uint64_t kN = 4096;     // elements
constexpr uint32_t kLine = 64;

// A memory area per reference level, with a random permutation so the
// access stream has no spatial locality; every line is touched exactly
// once, so every reference is a cold miss — the model's assumption.
struct SyntheticWorkload {
  std::vector<AlignedBuffer<uint8_t>> areas;
  std::vector<std::vector<uint32_t>> perms;

  explicit SyntheticWorkload(uint64_t seed) {
    Rng rng(seed);
    for (uint32_t l = 0; l < kK; ++l) {
      areas.push_back(MakeAlignedBuffer<uint8_t>(kN * kLine, kLine));
      std::vector<uint32_t> perm(kN);
      for (uint32_t i = 0; i < kN; ++i) perm[i] = i;
      rng.Shuffle(&perm);
      perms.push_back(std::move(perm));
    }
  }

  const uint8_t* Addr(uint32_t level, uint64_t element) const {
    return areas[level].get() + uint64_t(perms[level][element]) * kLine;
  }
};

// Simulator config with TLB and branch effects disabled, isolating the
// cache/latency/bandwidth behaviour the models describe.
sim::SimConfig CrosscheckConfig() {
  sim::SimConfig cfg;
  cfg.dtlb_entries = 4096;
  cfg.tlb_miss_latency = 0;
  return cfg;
}

model::CodeCosts Costs() { return model::CodeCosts{{30, 12, 10, 25}}; }

uint64_t RunBaseline(const SyntheticWorkload& w, const sim::SimConfig& cfg) {
  sim::MemorySim sim(cfg);
  const auto costs = Costs();
  for (uint64_t i = 0; i < kN; ++i) {
    sim.Busy(costs.c[0]);
    for (uint32_t l = 0; l < kK; ++l) {
      sim.Access(w.Addr(l, i), 8, false);
      sim.Busy(costs.c[l + 1]);
    }
  }
  return sim.stats().TotalCycles();
}

uint64_t RunGroup(const SyntheticWorkload& w, const sim::SimConfig& cfg,
                  uint32_t group) {
  sim::MemorySim sim(cfg);
  const auto costs = Costs();
  for (uint64_t j = 0; j < kN; j += group) {
    uint64_t end = std::min(kN, j + group);
    // Stage 0: code 0 + prefetch m1 (the issue cost is charged by the
    // simulator's Prefetch).
    for (uint64_t i = j; i < end; ++i) {
      sim.Busy(costs.c[0]);
      sim.Prefetch(w.Addr(0, i), 8);
    }
    // Stages 1..k: visit m_l, run code l, prefetch m_{l+1}.
    for (uint32_t l = 0; l < kK; ++l) {
      for (uint64_t i = j; i < end; ++i) {
        sim.Access(w.Addr(l, i), 8, false);
        sim.Busy(costs.c[l + 1]);
        if (l + 1 < kK) sim.Prefetch(w.Addr(l + 1, i), 8);
      }
    }
  }
  return sim.stats().TotalCycles();
}

uint64_t RunSwp(const SyntheticWorkload& w, const sim::SimConfig& cfg,
                uint32_t d) {
  sim::MemorySim sim(cfg);
  const auto costs = Costs();
  uint64_t last = (kN - 1) + uint64_t(kK) * d;
  for (uint64_t j = 0; j <= last; ++j) {
    if (j < kN) {
      sim.Busy(costs.c[0]);
      sim.Prefetch(w.Addr(0, j), 8);
    }
    for (uint32_t l = 1; l <= kK; ++l) {
      uint64_t delay = uint64_t(l) * d;
      if (j < delay || j - delay >= kN) continue;
      uint64_t e = j - delay;
      sim.Access(w.Addr(l - 1, e), 8, false);
      sim.Busy(costs.c[l]);
      if (l < kK) sim.Prefetch(w.Addr(l, e), 8);
    }
  }
  return sim.stats().TotalCycles();
}

void ExpectWithin(uint64_t measured, uint64_t predicted, double rel_tol) {
  double lo = double(predicted) * (1.0 - rel_tol);
  double hi = double(predicted) * (1.0 + rel_tol);
  EXPECT_GE(double(measured), lo)
      << "measured " << measured << " vs predicted " << predicted;
  EXPECT_LE(double(measured), hi)
      << "measured " << measured << " vs predicted " << predicted;
}

TEST(ModelSimCrosscheck, BaselinePredictionTight) {
  SyntheticWorkload w(1);
  sim::SimConfig cfg = CrosscheckConfig();
  model::MachineParams m{cfg.memory_latency, cfg.memory_bandwidth_gap};
  uint64_t measured = RunBaseline(w, cfg);
  uint64_t predicted = model::BaselineCycles(Costs(), m, kN);
  // Fully exposed cold misses: the model should be nearly exact.
  ExpectWithin(measured, predicted, 0.05);
}

class GroupCrosscheck : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GroupCrosscheck, PredictionWithinTolerance) {
  SyntheticWorkload w(2);
  sim::SimConfig cfg = CrosscheckConfig();
  model::MachineParams m{cfg.memory_latency, cfg.memory_bandwidth_gap};
  uint32_t g = GetParam();
  uint64_t measured = RunGroup(w, cfg, g);
  uint64_t predicted = model::GroupPrefetchModel::CriticalPathCycles(
      Costs(), m, g, kN, cfg.cost_prefetch_issue);
  // Cache-set conflicts and MSHR effects are outside the model; allow
  // a modest band.
  ExpectWithin(measured, predicted, 0.20);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, GroupCrosscheck,
                         ::testing::Values(2, 4, 8, 16, 32));

class SwpCrosscheck : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SwpCrosscheck, PredictionWithinTolerance) {
  SyntheticWorkload w(3);
  sim::SimConfig cfg = CrosscheckConfig();
  model::MachineParams m{cfg.memory_latency, cfg.memory_bandwidth_gap};
  uint32_t d = GetParam();
  uint64_t measured = RunSwp(w, cfg, d);
  uint64_t predicted = model::SwpPrefetchModel::CriticalPathCycles(
      Costs(), m, d, kN, cfg.cost_prefetch_issue);
  ExpectWithin(measured, predicted, 0.20);
}

INSTANTIATE_TEST_SUITE_P(Distances, SwpCrosscheck,
                         ::testing::Values(1, 2, 4, 8));

// W coroutine chains over strided elements, resumed round-robin, run in
// lockstep: sweep s executes stage s of every chain, which is exactly
// group prefetching with G = W. The group model therefore predicts the
// coro pipeline's cycles once the scheduler's per-resume overhead
// (cost_stage_overhead_coro × resumes) is added on top.
uint64_t RunCoroRoundRobin(const SyntheticWorkload& w,
                           const sim::SimConfig& cfg, uint32_t width,
                           uint64_t* resumes_out) {
  sim::MemorySim sim(cfg);
  const auto costs = Costs();
  uint64_t resumes = 0;
  RunCoroPipeline(sim, width, [&](uint32_t chain) {
    return [](sim::MemorySim& sim, const SyntheticWorkload& w,
              const model::CodeCosts& costs, uint32_t chain, uint32_t width,
              uint64_t* resumes) -> KernelCoro {
      ++*resumes;  // the first Resume() starts the lazily-created chain
      for (uint64_t i = chain; i < kN; i += width) {
        sim.Busy(costs.c[0]);
        sim.Prefetch(w.Addr(0, i), 8);
        co_await KernelCoro::NextStage{};
        ++*resumes;
        for (uint32_t l = 0; l < kK; ++l) {
          sim.Access(w.Addr(l, i), 8, false);
          sim.Busy(costs.c[l + 1]);
          if (l + 1 < kK) {
            sim.Prefetch(w.Addr(l + 1, i), 8);
            co_await KernelCoro::NextStage{};
            ++*resumes;
          }
        }
        // Stage k and the next element's stage 0 share a resume, as in
        // the probe chains' FINISHED transition.
      }
    }(sim, w, costs, chain, width, &resumes);
  });
  if (resumes_out != nullptr) *resumes_out = resumes;
  return sim.stats().TotalCycles();
}

class CoroCrosscheck : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CoroCrosscheck, GroupModelPlusResumeOverheadPredicts) {
  SyntheticWorkload w(5);
  sim::SimConfig cfg = CrosscheckConfig();
  model::MachineParams m{cfg.memory_latency, cfg.memory_bandwidth_gap};
  uint32_t width = GetParam();
  uint64_t resumes = 0;
  uint64_t measured = RunCoroRoundRobin(w, cfg, width, &resumes);
  uint64_t predicted =
      model::GroupPrefetchModel::CriticalPathCycles(
          Costs(), m, width, kN, cfg.cost_prefetch_issue) +
      resumes * cfg.cost_stage_overhead_coro;
  if (width >= model::GroupPrefetchModel::MinGroupSize(Costs(), m)) {
    ExpectWithin(measured, predicted, 0.20);
  } else {
    // Below Theorem 1's minimum width the group model charges exposed
    // latency between groups, but the chains pipeline across group
    // boundaries (a chain's last stage and its next element's stage 0
    // share a resume), so the coro loop can only beat the prediction.
    EXPECT_LE(double(measured), double(predicted) * 1.20)
        << "measured " << measured << " vs predicted " << predicted;
  }
}

// Widths divide kN so the chains stay in lockstep to the last sweep.
INSTANTIATE_TEST_SUITE_P(Widths, CoroCrosscheck,
                         ::testing::Values(4, 8, 16, 32));

TEST(ModelSimCrosscheck, FeasibleGroupHidesLatencyInSimulatorToo) {
  SyntheticWorkload w(4);
  sim::SimConfig cfg = CrosscheckConfig();
  model::MachineParams m{cfg.memory_latency, cfg.memory_bandwidth_gap};
  uint32_t gmin = model::GroupPrefetchModel::MinGroupSize(Costs(), m);
  ASSERT_GT(gmin, 0u);
  uint64_t at_min = RunGroup(w, cfg, gmin);
  uint64_t baseline = RunBaseline(w, cfg);
  // With Theorem 1 satisfied the simulator should also show latencies
  // (mostly) hidden: a large speedup over the exposed baseline.
  EXPECT_GT(baseline, at_min * 2);
}

}  // namespace
}  // namespace hashjoin
