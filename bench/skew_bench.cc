// Skew tolerance: the prefetching kernels' conflict protocols (§4.4's
// delayed tuples, §5.3's waiting queues) engage when multiple tuples of
// a group hit the same bucket. Under Zipf-skewed build keys, conflicts
// go from negligible to constant; this bench shows the schemes' build
// times stay close to the baseline's trajectory — the protocols tolerate
// skew rather than collapsing ("the algorithm can deal with any number
// of delayed tuples", §4.4).

// --json[=path] additionally writes BENCH_skew.json in the shared
// harness schema (see src/perf/bench_reporter.h): one record per
// (theta, scheme) with the full simulated stall breakdown, plus the
// morsel-parallel record with per-thread sim stats. Simulated cycles
// are deterministic, so the default is a single trial.

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "perf/bench_reporter.h"

using namespace hashjoin;
using namespace hashjoin::bench;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = ScaleFromFlags(flags, 0.05);
  sim::SimConfig cfg;
  uint64_t tuples = geo.BuildTuples(20);

  std::unique_ptr<perf::BenchReporter> reporter;
  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "skew";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = int(flags.GetInt("trials", 1));
    opt.warmup = int(flags.GetInt("warmup", 0));
    // The measured quantity is simulated cycles, not host time.
    opt.collect_counters = false;
    reporter = std::make_unique<perf::BenchReporter>(std::move(opt));
  }

  std::printf("=== Build-phase skew tolerance (Zipf keys, %llu tuples) "
              "[scale=%.2f] ===\n\n",
              (unsigned long long)tuples, geo.scale);
  // Conflict-protocol schemes (simple has no inter-tuple protocol, so it
  // is uninteresting here); --scheme overrides the set.
  const std::vector<Scheme> schemes =
      flags.Has("scheme")
          ? SchemesFromFlag(flags)
          : std::vector<Scheme>{Scheme::kBaseline, Scheme::kGroup,
                                Scheme::kSwp, Scheme::kCoro};
  std::printf("%-10s", "theta");
  for (Scheme s : schemes) std::printf(" %14s", SchemeName(s));
  std::printf("\n");

  // Model-chosen depths for the simulated machine (the build loop shares
  // the probe loop's bucket-walk stage structure) — no hardcoded G/D.
  KernelParams params = SimTunedParams(ProbeCodeCosts(), cfg);
  for (double theta : {0.0, 0.5, 0.8, 0.99, 1.1}) {
    Relation build =
        theta == 0.0
            ? GenerateSourceRelation(tuples, 20, 7)
            : GenerateSkewedRelation(tuples, 20, theta, tuples / 4, 7);
    std::printf("%-10.2f", theta);
    for (Scheme s : schemes) {
      sim::SimStats stats;
      uint64_t built = 0;
      auto run_build = [&] {
        sim::MemorySim simulator(cfg);
        SimMemory mm(&simulator);
        HashTable ht(ChooseBucketCount(build.num_tuples(), 31));
        BuildPartition(mm, s, build, &ht, params);
        built = ht.CountTuplesSlow();
        HJ_CHECK(built == build.num_tuples());
        stats = simulator.stats();
      };
      if (reporter) {
        char theta_str[16];
        std::snprintf(theta_str, sizeof(theta_str), "%.2f", theta);
        JsonValue config = JsonValue::Object();
        config.Set("phase", "build");
        config.Set("scheme", SchemeName(s));
        config.Set("G", params.group_size);
        config.Set("D", params.prefetch_distance);
        config.Set("threads", 1);
        config.Set("theta", theta);
        config.Set("build_tuples", build.num_tuples());
        JsonValue& rec = reporter->AddRecord(
            std::string("build/") + SchemeName(s) + "/theta=" + theta_str,
            std::move(config), run_build);
        rec.Set("outputs", built);
        rec.Set("verified", built == build.num_tuples());
        kSimBlock.Set(&rec, stats);
      } else {
        run_build();
      }
      std::printf(" %14llu",
                  (unsigned long long)stats.TotalCycles());
    }
    std::printf("\n");
  }
  std::printf(
      "\nexpected: group/swp keep a large margin over the baseline at "
      "every skew level; conflicts add modest serial work, never "
      "incorrectness\n");

  // --- Morsel-parallel GRACE join under partition-size skew ---
  //
  // Zipf keys also skew the *partition* sizes, which is exactly what the
  // largest-first morsel schedule is for: the big partition starts
  // first, the small ones fill the other workers. Per-thread simulated
  // breakdowns show how evenly the stall profile spreads; the summed
  // totals equal the merged join-phase window by construction.
  uint32_t threads = uint32_t(flags.GetInt("threads", 4));
  std::printf(
      "\n=== Morsel-parallel GRACE join, Zipf build keys (theta=0.99, "
      "threads=%u) ===\n\n",
      threads);
  Relation build =
      GenerateSkewedRelation(tuples, 20, 0.99, tuples / 4, 7);
  Relation probe =
      GenerateSkewedRelation(2 * tuples, 20, 0.99, tuples / 4, 9);
  GraceConfig config;
  config.forced_num_partitions = 8;
  config.join_params = params;
  config.num_threads = threads;
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  JoinResult r = GraceHashJoin(mm, build, probe, config, nullptr);
  std::printf("output tuples: %llu (thread-count independent)\n",
              (unsigned long long)r.output_tuples);
  for (size_t t = 0; t < r.per_thread_join_sim.size(); ++t) {
    PrintBreakdown("  thread " + std::to_string(t),
                   r.per_thread_join_sim[t]);
  }
  PrintBreakdown("  join phase merged", r.join_phase.sim);
  std::printf(
      "\nexpected: no thread's total dwarfs the rest (largest-first "
      "morsels bound the tail), and per-thread cycles sum to the merged "
      "join-phase window\n");

  if (reporter) {
    JsonValue config = JsonValue::Object();
    config.Set("phase", "grace_full");
    config.Set("scheme", SchemeName(GraceConfig{}.join_scheme));
    config.Set("G", params.group_size);
    config.Set("D", params.prefetch_distance);
    config.Set("threads", threads);
    config.Set("theta", 0.99);
    config.Set("build_tuples", build.num_tuples());
    config.Set("probe_tuples", probe.num_tuples());
    JsonValue& rec = reporter->AddMeasuredRecord(
        "grace_morsel/theta=0.99", std::move(config),
        r.join_phase.wall_seconds, "simulated run (cycles are exact)");
    rec.Set("outputs", r.output_tuples);
    kSimBlock.Set(&rec, r.join_phase.sim);
    kPerThreadSimBlock.Set(&rec, r.per_thread_join_sim);

    if (!reporter->WriteAndReport(flags)) return 1;
  }
  return 0;
}
