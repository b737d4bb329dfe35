#include "gtest/gtest.h"
#include "model/cost_model.h"
#include "util/bitops.h"

namespace hashjoin {
namespace model {
namespace {

CodeCosts ProbeLikeCosts() {
  // k = 3: C0 (hash), C1 (header), C2 (cells), C3 (compare + emit).
  return CodeCosts{{30, 10, 8, 34}};
}

MachineParams DefaultMachine() { return MachineParams{150, 10}; }

TEST(GroupModelTest, ConditionMatchesTheorem1Arithmetic) {
  CodeCosts costs = ProbeLikeCosts();
  MachineParams m = DefaultMachine();
  // (G-1)*C0 >= 150 -> G >= 6; (G-1)*max{C1,Tnext}=10(G-1) >= 150 -> G>=16;
  // C2: max{8,10}=10 -> G>=16; C3: 34(G-1)>=150 -> G>=6. So min G = 16.
  EXPECT_FALSE(GroupPrefetchModel::ConditionHolds(costs, m, 15));
  EXPECT_TRUE(GroupPrefetchModel::ConditionHolds(costs, m, 16));
  EXPECT_EQ(GroupPrefetchModel::MinGroupSize(costs, m), 16u);
}

TEST(GroupModelTest, LargerLatencyNeedsLargerGroup) {
  CodeCosts costs = ProbeLikeCosts();
  uint32_t g150 = GroupPrefetchModel::MinGroupSize(costs, {150, 10});
  uint32_t g1000 = GroupPrefetchModel::MinGroupSize(costs, {1000, 10});
  EXPECT_GT(g1000, g150);
}

TEST(GroupModelTest, EmptyCode0NeverSatisfies) {
  CodeCosts costs{{0, 20, 20}};
  EXPECT_EQ(GroupPrefetchModel::MinGroupSize(costs, DefaultMachine()), 0u);
}

TEST(GroupModelTest, CriticalPathConvergesToBusyTimeWhenHidden) {
  CodeCosts costs = ProbeLikeCosts();
  MachineParams m = DefaultMachine();
  uint32_t g = GroupPrefetchModel::MinGroupSize(costs, m);
  const uint64_t n = 16000;
  uint64_t cp = GroupPrefetchModel::CriticalPathCycles(costs, m, g, n, 1);
  // Busy-only lower bound: every code stage + prefetch issues.
  uint64_t busy = n * (30 + 10 + 8 + 34 + 3 /*prefetch issues*/);
  // Bandwidth floor: stages where Tnext > Ci pay the gap instead.
  uint64_t bw = n * (30 + 1 + 10 + 10 + 34);
  uint64_t floor = std::max(busy, bw);
  EXPECT_GE(cp, floor);
  EXPECT_LT(cp, floor * 1.15);  // latency edges no longer bind
}

TEST(GroupModelTest, CriticalPathExposesLatencyWhenGroupTooSmall) {
  CodeCosts costs = ProbeLikeCosts();
  MachineParams m = DefaultMachine();
  const uint64_t n = 16000;
  uint64_t cp_small =
      GroupPrefetchModel::CriticalPathCycles(costs, m, 2, n, 1);
  uint64_t cp_right = GroupPrefetchModel::CriticalPathCycles(
      costs, m, GroupPrefetchModel::MinGroupSize(costs, m), n, 1);
  EXPECT_GT(cp_small, cp_right * 2);
}

TEST(GroupModelTest, BaselineWorseThanAnyGroupPrefetch) {
  CodeCosts costs = ProbeLikeCosts();
  MachineParams m = DefaultMachine();
  const uint64_t n = 10000;
  uint64_t base = BaselineCycles(costs, m, n);
  uint64_t gp = GroupPrefetchModel::CriticalPathCycles(costs, m, 16, n, 1);
  EXPECT_GT(base, gp * 2);  // the paper's 2-3X regime
}

TEST(SwpModelTest, ConditionMatchesTheorem2Arithmetic) {
  CodeCosts costs = ProbeLikeCosts();
  MachineParams m = DefaultMachine();
  // Row = max{C0+C3, 10} + max{C1,10} + max{C2,10} = 64 + 10 + 10 = 84.
  // D*84 >= 150 -> D >= 2.
  EXPECT_FALSE(SwpPrefetchModel::ConditionHolds(costs, m, 1));
  EXPECT_TRUE(SwpPrefetchModel::ConditionHolds(costs, m, 2));
  EXPECT_EQ(SwpPrefetchModel::MinDistance(costs, m), 2u);
}

TEST(SwpModelTest, AlwaysSatisfiableEvenWithEmptyCode0) {
  CodeCosts costs{{0, 20, 20}};
  EXPECT_GT(SwpPrefetchModel::MinDistance(costs, DefaultMachine()), 0u);
}

TEST(SwpModelTest, StateArraySizing) {
  // Smallest power of two >= k*D + 1 (§5.3).
  EXPECT_EQ(SwpPrefetchModel::StateArraySize(3, 1), 4u);
  EXPECT_EQ(SwpPrefetchModel::StateArraySize(3, 2), 8u);
  EXPECT_EQ(SwpPrefetchModel::StateArraySize(3, 5), 16u);
  EXPECT_EQ(SwpPrefetchModel::StateArraySize(2, 1), 4u);
  // Every kernel's ring: a power of two holding stages*D + 1 slots,
  // indexed through mask = size - 1.
  for (uint32_t stages = 1; stages <= 4; ++stages) {
    for (uint32_t d = 1; d <= 64; ++d) {
      const PipelineRing ring(stages, d);
      EXPECT_TRUE(IsPowerOfTwo(ring.size)) << stages << "x" << d;
      EXPECT_GE(ring.size, uint64_t(stages) * d + 1) << stages << "x" << d;
      EXPECT_LT(ring.size, 2 * (uint64_t(stages) * d + 1));
      EXPECT_EQ(ring.mask, ring.size - 1);
      EXPECT_EQ(SwpPrefetchModel::StateArraySize(stages, d), ring.size);
    }
  }
}

TEST(SwpModelTest, CriticalPathConvergesToBusyTimeWhenHidden) {
  CodeCosts costs = ProbeLikeCosts();
  MachineParams m = DefaultMachine();
  uint32_t d = SwpPrefetchModel::MinDistance(costs, m);
  const uint64_t n = 16000;
  uint64_t cp = SwpPrefetchModel::CriticalPathCycles(costs, m, d, n, 1);
  uint64_t busy = n * (30 + 10 + 8 + 34 + 3);
  uint64_t bw = n * (30 + 1 + 10 + 10 + 34);
  uint64_t floor = std::max(busy, bw);
  EXPECT_GE(cp, floor * 95 / 100);
  EXPECT_LT(cp, floor * 115 / 100);
}

TEST(SwpModelTest, TooSmallDistanceExposesLatency) {
  // Make per-row work small so D=1 cannot hide T.
  CodeCosts costs{{5, 5, 5, 5}};
  MachineParams m{600, 2};
  const uint64_t n = 8000;
  uint64_t d1 = SwpPrefetchModel::CriticalPathCycles(costs, m, 1, n, 1);
  uint32_t dmin = SwpPrefetchModel::MinDistance(costs, m);
  ASSERT_GT(dmin, 1u);
  uint64_t dright = SwpPrefetchModel::CriticalPathCycles(costs, m, dmin, n, 1);
  EXPECT_GT(d1, dright * 3 / 2);
}

TEST(SwpModelTest, SwpNoWorseThanGroupAtSteadyState) {
  // The paper's §5.4: SPP avoids the inter-group bubbles, so its modeled
  // runtime is <= group prefetching's at respective optimal parameters.
  CodeCosts costs = ProbeLikeCosts();
  MachineParams m = DefaultMachine();
  const uint64_t n = 16000;
  uint64_t gp = GroupPrefetchModel::CriticalPathCycles(
      costs, m, GroupPrefetchModel::MinGroupSize(costs, m), n, 1);
  uint64_t spp = SwpPrefetchModel::CriticalPathCycles(
      costs, m, SwpPrefetchModel::MinDistance(costs, m), n, 1);
  EXPECT_LE(spp, gp * 102 / 100);
}

TEST(BaselineModelTest, Arithmetic) {
  CodeCosts costs{{10, 20, 30}};
  MachineParams m{100, 5};
  // Per element: 10+20+30 busy + 2 * 100 latency = 260.
  EXPECT_EQ(BaselineCycles(costs, m, 7), 7u * 260u);
}

// Property sweep: for many random cost vectors, the solved minimum G/D
// indeed satisfies the condition and (min-1) does not.
class ModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelPropertyTest, MinimaAreTight) {
  int seed = GetParam();
  // Cheap deterministic pseudo-random costs.
  auto r = [&](int i, int mod) {
    return uint32_t((seed * 2654435761u + i * 40503u) % mod + 1);
  };
  CodeCosts costs{{r(0, 40), r(1, 40), r(2, 40), r(3, 40)}};
  MachineParams m{uint32_t(100 + r(4, 900)), uint32_t(1 + r(5, 20))};

  uint32_t g = GroupPrefetchModel::MinGroupSize(costs, m);
  ASSERT_GT(g, 0u);
  EXPECT_TRUE(GroupPrefetchModel::ConditionHolds(costs, m, g));
  EXPECT_FALSE(GroupPrefetchModel::ConditionHolds(costs, m, g - 1));

  uint32_t d = SwpPrefetchModel::MinDistance(costs, m);
  ASSERT_GT(d, 0u);
  EXPECT_TRUE(SwpPrefetchModel::ConditionHolds(costs, m, d));
  if (d > 1) EXPECT_FALSE(SwpPrefetchModel::ConditionHolds(costs, m, d - 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelPropertyTest,
                         ::testing::Range(1, 40));

}  // namespace
}  // namespace model
}  // namespace hashjoin
