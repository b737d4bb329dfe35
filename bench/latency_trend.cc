// The conclusions' "future speed gap" claim: even if the
// processor/memory gap grows by 6x (T: 150 -> 1000 cycles and beyond),
// group and software-pipelined prefetching — retuned per the models —
// keep the join phase's time nearly flat, while the baseline degrades in
// proportion to T.

#include <cstdio>

#include "bench_common.h"
#include "model/cost_model.h"

using namespace hashjoin;
using namespace hashjoin::bench;

namespace {

uint64_t ProbeCycles(Scheme scheme, const JoinWorkload& w,
                     const KernelParams& params, const sim::SimConfig& cfg) {
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildPartition(mm, Scheme::kGroup, w.build, &ht, params);
  simulator.ResetStats();
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
  ProbePartition(mm, scheme, w.probe, ht, w.build.schema().fixed_size(),
                 params, &out);
  return simulator.stats().TotalCycles();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = flags.GetDouble("scale", 0.05);
  flags.RefuseUnread();

  WorkloadSpec spec;
  spec.tuple_size = 100;
  spec.num_build_tuples = geo.BuildTuples(100);
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  std::printf("=== Latency trend: probing time vs memory latency T "
              "(parameters retuned per the models) [scale=%.2f] ===\n\n",
              geo.scale);
  std::printf("%-8s %6s %6s %14s %14s %14s\n", "T", "G*", "D*", "baseline",
              "group", "swp");

  for (uint32_t latency : {150u, 300u, 600u, 1000u, 1500u}) {
    sim::SimConfig cfg;
    cfg.memory_latency = latency;
    model::CodeCosts costs{{cfg.cost_hash + cfg.cost_slot_bookkeeping,
                            cfg.cost_visit_header, cfg.cost_visit_cell,
                            cfg.cost_key_compare +
                                2 * cfg.cost_tuple_copy_per_line}};
    model::MachineParams machine{latency, cfg.memory_bandwidth_gap};
    // ChooseParams resolves the 0 "infeasible" sentinels of
    // MinGroupSize/MinDistance (G=0 or D=0 would misconfigure the
    // kernels) to safe fallbacks, with a logged warning.
    model::ParamChoice choice = model::ChooseParams(
        costs, machine, /*fallback_group=*/64, /*fallback_distance=*/4);
    uint32_t g = choice.group_size;
    uint32_t d = choice.prefetch_distance;

    uint64_t base = ProbeCycles(Scheme::kBaseline, w, KernelParams{}, cfg);
    KernelParams gp;
    gp.group_size = g;
    uint64_t group = ProbeCycles(Scheme::kGroup, w, gp, cfg);
    KernelParams sp;
    sp.prefetch_distance = d;
    uint64_t swp = ProbeCycles(Scheme::kSwp, w, sp, cfg);
    std::printf("%-8u %6u%s %5u%s %14llu %14llu %14llu\n", latency, g,
                choice.group_feasible ? " " : "!",
                d, choice.swp_feasible ? " " : "!",
                (unsigned long long)base, (unsigned long long)group,
                (unsigned long long)swp);
  }
  std::printf(
      "\npaper: prefetching keeps up as the speed gap grows 6x; the "
      "baseline degrades linearly with T\n");
  return 0;
}
