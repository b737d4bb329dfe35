// Parameter tuner: derives the minimal group size G (Theorem 1) and
// prefetch distance D (Theorem 2) from the generalized models, then
// validates them with a short empirical sweep in the simulated memory
// hierarchy. This is how a deployment would pick G and D for a new
// machine (a new T / Tnext point) without hand-tuning — the question the
// paper's §4.2/§5.1 models answer.
//
//   ./tuner [--latency=T] [--bandwidth_gap=Tnext]

#include <cstdio>

#include "join/grace.h"
#include "mem/memory_model.h"
#include "model/cost_model.h"
#include "util/flags.h"
#include "workload/generator.h"

using namespace hashjoin;

namespace {

uint64_t MeasureProbe(Scheme scheme, const JoinWorkload& w,
                      const KernelParams& params,
                      const sim::SimConfig& cfg) {
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
  sim::SimConfig cfg;
  cfg.memory_latency = uint32_t(flags.GetInt("latency", 150));
  cfg.memory_bandwidth_gap =
      uint32_t(flags.GetInt("bandwidth_gap", cfg.memory_bandwidth_gap));
  flags.RefuseUnread();

  // Stage costs of the probing pipeline on the simulated machine (k=3).
  model::CodeCosts costs{{cfg.cost_hash + cfg.cost_slot_bookkeeping,
                          cfg.cost_visit_header, cfg.cost_visit_cell,
                          cfg.cost_key_compare +
                              2 * cfg.cost_tuple_copy_per_line}};
  model::MachineParams machine{cfg.memory_latency,
                               cfg.memory_bandwidth_gap};

  uint32_t model_g = model::GroupPrefetchModel::MinGroupSize(costs, machine);
  uint32_t model_d = model::SwpPrefetchModel::MinDistance(costs, machine);
  std::printf("machine: T=%u Tnext=%u\n", cfg.memory_latency,
              cfg.memory_bandwidth_gap);
  std::printf("model:   min G = %u (Theorem 1), min D = %u (Theorem 2), "
              "state array = %u entries\n",
              model_g, model_d,
              model::SwpPrefetchModel::StateArraySize(3, model_d));

  // Empirical confirmation: sweep around the model's answers.
  WorkloadSpec spec;
  spec.tuple_size = 20;
  spec.num_build_tuples = 100000;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  std::printf("\nempirical sweep (probe cycles):\n  G:");
  uint32_t best_g = 0;
  uint64_t best_g_cycles = UINT64_MAX;
  for (uint32_t g = std::max(2u, model_g / 4); g <= model_g * 4; g += std::max(1u, model_g / 4)) {
    KernelParams p;
    p.group_size = g;
    uint64_t c = MeasureProbe(Scheme::kGroup, w, p, cfg);
    std::printf(" %u:%llu", g, (unsigned long long)c);
    if (c < best_g_cycles) {
      best_g_cycles = c;
      best_g = g;
    }
  }
  std::printf("\n  D:");
  uint32_t best_d = 0;
  uint64_t best_d_cycles = UINT64_MAX;
  for (uint32_t d = std::max(1u, model_d / 4); d <= model_d * 4;
       d += std::max(1u, model_d / 4)) {
    KernelParams p;
    p.prefetch_distance = d;
    uint64_t c = MeasureProbe(Scheme::kSwp, w, p, cfg);
    std::printf(" %u:%llu", d, (unsigned long long)c);
    if (c < best_d_cycles) {
      best_d_cycles = c;
      best_d = d;
    }
  }
  std::printf("\n\nrecommendation: G=%u (model %u), D=%u (model %u)\n",
              best_g, model_g, best_d, model_d);
  std::printf("pick the smallest feasible value: it minimizes concurrent "
              "prefetches and cache-conflict evictions (paper §4.2).\n");
  return 0;
}
