// Figure 12: join-phase probing performance vs. the group size G and the
// prefetch distance D, at memory latency T = 150 and T = 1000 cycles.
// The curves are concave: too-small parameters leave latency exposed,
// too-large ones cause cache conflicts. The optima shift right as T
// grows, and software-pipelined prefetching keeps its performance even
// at T = 1000 (the "future speed gap" result).
//
// Modes:
//   (default)          simulated sweep, human-readable tables
//   --json[=path]      additionally writes BENCH_fig12.json records
//   --real             sweeps G/D on this host's hardware instead, using
//                      the same workload geometry as real_join_bench
//                      --json (--smoke shrinks it identically), and
//                      prints the offline-best depth per scheme
//   --online-json=PATH compares the offline best against the online
//                      tuner records of a `real_join_bench --json=PATH
//                      --tune=online` run (convergence ratio per scheme)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "model/cost_model.h"
#include "perf/bench_reporter.h"
#include "util/json_writer.h"
#include "util/timer.h"

using namespace hashjoin;
using namespace hashjoin::bench;

namespace {

// Probe-only measurement: the table is built once outside the window.
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

// Adds one sweep-point record in the shared harness schema (so
// bench_diff can check/compare fig12 output like any other bench).
// Returns the added record for extras (e.g. sim cycle counts).
JsonValue& AddSweepRecord(perf::BenchReporter* reporter,
                          const std::string& name, const char* phase,
                          Scheme scheme, const KernelParams& params,
                          double wall_seconds, const char* counters_note,
                          uint64_t probe_tuples) {
  JsonValue config = JsonValue::Object();
  config.Set("phase", phase);
  config.Set("scheme", SchemeName(scheme));
  config.Set("G", params.group_size);
  config.Set("D", params.prefetch_distance);
  config.Set("threads", 1);
  config.Set("probe_tuples", probe_tuples);
  return reporter->AddMeasuredRecord(name, std::move(config), wall_seconds,
                                     counters_note);
}

// ---------------------------------------------------------------------------
// --real: offline G/D sweep on this host, comparable with the online
// tuner records (same workload geometry as real_join_bench --json).

struct OfflineBest {
  uint32_t depth = 0;
  double ns_per_tuple = -1;
};

int RunRealSweep(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const uint32_t tuple_size =
      uint32_t(flags.GetInt("tuple-size", smoke ? 20 : 100));
  const uint64_t working_set = smoke ? (2ull << 20) : (48ull << 20);
  const int trials = int(flags.GetInt("trials", smoke ? 1 : 3));

  WorkloadSpec spec;
  spec.tuple_size = tuple_size;
  spec.num_build_tuples =
      working_set /
      (tuple_size + sizeof(BucketHeader) + sizeof(HashCell));
  spec.matches_per_build = 2.0;
  const JoinWorkload w = GenerateJoinWorkload(spec);

  // Optional online run to compare against. Its calibration supplies the
  // ns->cycles factor, so both sides of the ratio use the same units.
  JsonValue online_doc;
  bool have_online = false;
  double ghz = 3.0;
  const std::string online_path = flags.GetString("online-json", "");
  if (!online_path.empty()) {
    auto doc = ReadJsonFile(online_path);
    if (!doc.ok()) {
      std::fprintf(stderr, "--online-json: %s: %s\n", online_path.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    online_doc = std::move(doc.value());
    have_online = true;
    const JsonValue* g = online_doc.FindPath("calibration.cpu_ghz");
    if (g != nullptr && g->is_number() && g->AsDouble() > 0) {
      ghz = g->AsDouble();
    }
  }

  std::unique_ptr<perf::BenchReporter> reporter;
  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "fig12_real";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = 1;
    opt.warmup = 0;
    opt.collect_counters = false;
    reporter = std::make_unique<perf::BenchReporter>(std::move(opt));
  }

  std::printf("=== Figure 12 (real hardware): offline G/D sweep "
              "[tuple_size=%u, working set %llu MB] ===\n",
              tuple_size,
              (unsigned long long)(working_set >> 20));

  // One hash table serves every scheme: its contents do not depend on
  // the probe-side policy or depth.
  RealMemory mm;
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildPartition(mm, Scheme::kGroup, w.build, &ht,
                 bench::PaperJoinDefaults());

  const std::vector<Scheme> schemes = {Scheme::kGroup, Scheme::kSwp,
                                       Scheme::kCoro};

  const std::vector<uint32_t> g_depths =
      smoke ? std::vector<uint32_t>{2, 4, 8, 12, 16, 24}
            : std::vector<uint32_t>{2, 4, 8, 14, 19, 25, 32, 48, 64};
  const std::vector<uint32_t> d_depths =
      smoke ? std::vector<uint32_t>{1, 2, 4, 8}
            : std::vector<uint32_t>{1, 2, 3, 4, 6, 8, 12, 16};

  int rc = 0;
  for (Scheme scheme : schemes) {
    const bool is_swp = scheme == Scheme::kSwp;
    const std::vector<uint32_t>& depths = is_swp ? d_depths : g_depths;
    OfflineBest best;
    std::printf("\n--- %s ---\n%-8s %14s\n", SchemeName(scheme),
                is_swp ? "D" : "G", "ns/tuple");
    for (uint32_t depth : depths) {
      KernelParams p = bench::PaperJoinDefaults();
      if (is_swp) {
        p.prefetch_distance = depth;
      } else {
        p.group_size = depth;
      }
      double min_ns = -1;
      for (int t = 0; t < trials; ++t) {
        Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
        WallTimer timer;
        uint64_t n = ProbePartition(mm, scheme, w.probe, ht, tuple_size,
                                    p, &out);
        double ns = double(timer.ElapsedNanos());
        HJ_CHECK(n == w.expected_matches);
        if (min_ns < 0 || ns < min_ns) min_ns = ns;
      }
      const double npt = min_ns / double(w.probe.num_tuples());
      std::printf("%-8u %14.2f\n", depth, npt);
      if (best.ns_per_tuple < 0 || npt < best.ns_per_tuple) {
        best.depth = depth;
        best.ns_per_tuple = npt;
      }
      if (reporter) {
        AddSweepRecord(reporter.get(),
                       std::string("real/") + SchemeName(scheme) +
                           (is_swp ? "/D=" : "/G=") +
                           std::to_string(depth),
                       "probe_sweep_real", scheme, p, min_ns / 1e9,
                       "offline sweep records best-of-N wall time",
                       w.probe.num_tuples());
      }
    }

    const double best_cpt = best.ns_per_tuple * ghz;
    std::printf("offline best %s: %s=%u, %.2f ns/tuple (%.1f cyc/tuple "
                "at %.2f GHz)\n",
                SchemeName(scheme), is_swp ? "D" : "G", best.depth,
                best.ns_per_tuple, best_cpt, ghz);

    // Convergence check against the online tuner's record, when given.
    if (have_online) {
      const JsonValue* records = online_doc.Find("records");
      const JsonValue* online_rec = nullptr;
      for (size_t i = 0; records != nullptr && i < records->size(); ++i) {
        const JsonValue* name = records->at(i).Find("name");
        if (name != nullptr && name->is_string() &&
            name->AsString() ==
                std::string("online/") + SchemeName(scheme)) {
          online_rec = &records->at(i);
        }
      }
      if (online_rec == nullptr) {
        std::printf("online/%s: no record in %s\n", SchemeName(scheme),
                    online_path.c_str());
      } else {
        const JsonValue* cpt =
            online_rec->FindPath("tuner.converged_cycles_per_tuple");
        const JsonValue* fg = online_rec->FindPath("tuner.final_G");
        const JsonValue* fd = online_rec->FindPath("tuner.final_D");
        if (cpt != nullptr && cpt->is_number() && cpt->AsDouble() > 0 &&
            best_cpt > 0) {
          const double ratio = cpt->AsDouble() / best_cpt;
          const bool within = ratio <= 1.10;
          std::printf("online/%s: converged G=%lld D=%lld at %.1f "
                      "cyc/tuple -> ratio %.3f vs offline best (%s)\n",
                      SchemeName(scheme),
                      fg != nullptr ? (long long)fg->AsInt() : -1ll,
                      fd != nullptr ? (long long)fd->AsInt() : -1ll,
                      cpt->AsDouble(), ratio,
                      within ? "within 10%" : "NOT within 10%");
          if (!within) rc = 1;
        } else {
          std::printf("online/%s: record lacks "
                      "tuner.converged_cycles_per_tuple\n",
                      SchemeName(scheme));
        }
      }
    }

    if (reporter) {
      KernelParams bp = bench::PaperJoinDefaults();
      if (is_swp) {
        bp.prefetch_distance = best.depth;
      } else {
        bp.group_size = best.depth;
      }
      JsonValue config = JsonValue::Object();
      config.Set("phase", "offline_best");
      config.Set("scheme", SchemeName(scheme));
      config.Set("G", bp.group_size);
      config.Set("D", bp.prefetch_distance);
      config.Set("threads", 1);
      config.Set("probe_tuples", w.probe.num_tuples());
      JsonValue& rec = reporter->AddMeasuredRecord(
          std::string("offline_best/") + SchemeName(scheme), std::move(config),
          best.ns_per_tuple * double(w.probe.num_tuples()) / 1e9,
          "offline sweep records best-of-N wall time", trials);
      rec.Set("best_ns_per_tuple", best.ns_per_tuple);
      rec.Set("best_cycles_per_tuple", best_cpt);
    }
  }

  if (reporter && !reporter->WriteAndReport(flags)) return 1;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  if (flags.Has("real") || flags.Has("online-json")) {
    return RunRealSweep(flags);
  }

  BenchGeometry geo;
  geo.scale = ScaleFromFlags(flags, 0.1);

  WorkloadSpec spec;
  spec.tuple_size = uint32_t(flags.GetInt("tuple_size", 20));  // paper: 20B
  spec.num_build_tuples = geo.BuildTuples(spec.tuple_size);
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);

  std::unique_ptr<perf::BenchReporter> reporter;
  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "fig12";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = 1;
    opt.warmup = 0;
    opt.collect_counters = false;  // simulated cycles, not host time
    reporter = std::make_unique<perf::BenchReporter>(std::move(opt));
  }

  std::printf("=== Figure 12: probing-loop parameter tuning [scale=%.2f] "
              "===\n", geo.scale);

  for (uint32_t latency : {150u, 1000u}) {
    sim::SimConfig cfg;
    cfg.memory_latency = latency;

    std::printf("\n--- group prefetching, T=%u ---\n", latency);
    std::printf("%-8s %14s\n", "G", "cycles");
    for (uint32_t g : {2u, 4u, 8u, 14u, 19u, 25u, 32u, 48u, 64u, 96u,
                       128u, 192u, 256u}) {
      KernelParams p;
      p.group_size = g;
      WallTimer timer;
      uint64_t cycles = ProbeCycles(Scheme::kGroup, w, p, cfg);
      std::printf("%-8u %14llu\n", g, (unsigned long long)cycles);
      if (reporter) {
        AddSweepRecord(reporter.get(),
                       "sim/group/T=" + std::to_string(latency) +
                           "/G=" + std::to_string(g),
                       "probe_sweep_sim", Scheme::kGroup, p,
                       timer.ElapsedSeconds(),
                       "simulated run (cycles are exact)",
                       w.probe.num_tuples())
            .Set("sim_total_cycles", cycles);
      }
    }

    std::printf("\n--- software-pipelined prefetching, T=%u ---\n",
                latency);
    std::printf("%-8s %14s\n", "D", "cycles");
    for (uint32_t d : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 24u, 32u, 48u}) {
      KernelParams p;
      p.prefetch_distance = d;
      WallTimer timer;
      uint64_t cycles = ProbeCycles(Scheme::kSwp, w, p, cfg);
      std::printf("%-8u %14llu\n", d, (unsigned long long)cycles);
      if (reporter) {
        AddSweepRecord(reporter.get(),
                       "sim/swp/T=" + std::to_string(latency) +
                           "/D=" + std::to_string(d),
                       "probe_sweep_sim", Scheme::kSwp, p,
                       timer.ElapsedSeconds(),
                       "simulated run (cycles are exact)",
                       w.probe.num_tuples())
            .Set("sim_total_cycles", cycles);
      }
    }
  }

  // Model guidance: the minimum feasible parameters per Theorems 1 and 2
  // for probe-like stage costs under both latencies.
  sim::SimConfig def;
  model::CodeCosts costs{{def.cost_hash + def.cost_slot_bookkeeping,
                          def.cost_visit_header, def.cost_visit_cell,
                          def.cost_key_compare +
                              2 * def.cost_tuple_copy_per_line}};
  for (uint32_t latency : {150u, 1000u}) {
    model::MachineParams m{latency, def.memory_bandwidth_gap};
    // MinGroupSize/MinDistance return 0 when no parameter within the
    // search cap satisfies the theorem; configuring a kernel with that
    // sentinel (G=0 / D=0) would be a bug, so route the choice through
    // ChooseParams, which clamps to a safe fallback and warns.
    model::ParamChoice choice = model::ChooseParams(costs, m);
    std::printf(
        "\nmodel @T=%u: min G (Thm 1) = %u%s, min D (Thm 2) = %u%s\n",
        latency, choice.group_size,
        choice.group_feasible ? "" : " (infeasible; clamped fallback)",
        choice.prefetch_distance,
        choice.swp_feasible ? "" : " (infeasible; clamped fallback)");
  }
  std::printf(
      "\npaper: concave curves; optima G=19, D=1 at T=150, shifting right "
      "at T=1000; swp stays flat as T grows\n");

  if (reporter && !reporter->WriteAndReport(flags)) return 1;
  return 0;
}
