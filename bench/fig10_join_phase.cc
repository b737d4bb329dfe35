// Figure 10: join phase performance of the schemes varying (a) tuple
// size, (b) probe tuples per build tuple, (c) the fraction of tuples
// with matches. The paper reports 2.4-2.9X (group) and 2.1-2.7X
// (software-pipelined) speedups over the GRACE baseline, and only
// 1.1-1.2X for simple prefetching. The coroutine column is the AMAC
// -style policy; its interleave width comes from the same Theorem-1
// sizing as G.

// --json[=path] writes BENCH_fig10.json in the shared harness schema
// (see src/perf/bench_reporter.h): one record per (section, x, scheme)
// with the simulated stall breakdown. Simulated cycles are
// deterministic, so the default is a single trial.

#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "perf/bench_reporter.h"

using namespace hashjoin;
using namespace hashjoin::bench;

namespace {

KernelParams PaperParams() {
  // Our simulated machine's optimum G=14 (paper: 19), D=1 at T=150.
  return SimPaperJoinParams();
}

// The coroutine width W hides the same latency G group slots do, so it
// takes the Theorem-1 choice rather than the fixed paper G.
KernelParams SchemeParams(Scheme s, const sim::SimConfig& cfg) {
  KernelParams p = PaperParams();
  if (s == Scheme::kCoro) {
    p.group_size = TunedCoroWidth(ProbeCodeCosts(), cfg);
  }
  return p;
}

void RunRow(const std::string& section, const std::string& x_name,
            const std::string& x, const WorkloadSpec& spec,
            const std::vector<Scheme>& schemes, const sim::SimConfig& cfg,
            perf::BenchReporter* reporter) {
  JoinWorkload w = GenerateJoinWorkload(spec);
  std::vector<uint64_t> cycles;
  uint64_t expect = w.expected_matches;
  for (Scheme s : schemes) {
    KernelParams params = SchemeParams(s, cfg);
    SimRun r;
    auto run = [&] { r = RunJoinPhaseSim(s, w, params, cfg); };
    if (reporter) {
      JsonValue config = JsonValue::Object();
      config.Set("phase", "join");
      config.Set("scheme", SchemeName(s));
      config.Set("G", params.group_size);
      config.Set("D", params.prefetch_distance);
      config.Set("threads", 1);
      config.Set("section", section);
      config.Set(x_name, x);
      config.Set("tuple_size", spec.tuple_size);
      config.Set("build_tuples", spec.num_build_tuples);
      JsonValue& rec = reporter->AddRecord(
          "fig10" + section + "/" + SchemeName(s) + "/" + x_name + "=" + x,
          std::move(config), run);
      rec.Set("outputs", r.outputs);
      rec.Set("verified", r.outputs == expect);
      kSimBlock.Set(&rec, r.stats);
    } else {
      run();
    }
    if (r.outputs != expect) {
      std::fprintf(stderr, "output mismatch (%s): %llu vs %llu\n",
                   SchemeName(s), (unsigned long long)r.outputs,
                   (unsigned long long)expect);
      return;
    }
    cycles.push_back(r.stats.TotalCycles());
  }
  PrintSeriesRow(x, cycles);
  PrintSpeedups(cycles);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = ScaleFromFlags(flags, 0.1);
  sim::SimConfig cfg;
  std::vector<Scheme> schemes = SchemesFromFlag(flags);

  std::unique_ptr<perf::BenchReporter> reporter;
  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "fig10";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = int(flags.GetInt("trials", 1));
    opt.warmup = int(flags.GetInt("warmup", 0));
    // The measured quantity is simulated cycles, not host time.
    opt.collect_counters = false;
    reporter = std::make_unique<perf::BenchReporter>(std::move(opt));
  }

  std::printf("=== Figure 10: join phase performance [scale=%.2f] ===\n",
              geo.scale);

  std::printf("\n--- (a) varying tuple size (2 matches/build) ---\n");
  PrintSeriesHeader("tuple_bytes", schemes);
  for (uint32_t ts : {20u, 60u, 100u, 140u}) {
    WorkloadSpec spec;
    spec.tuple_size = ts;
    spec.num_build_tuples = geo.BuildTuples(ts);
    spec.matches_per_build = 2.0;
    RunRow("a", "tuple_bytes", std::to_string(ts), spec, schemes, cfg,
           reporter.get());
  }

  std::printf("\n--- (b) varying matches per build tuple (100B) ---\n");
  PrintSeriesHeader("matches", schemes);
  for (double m : {1.0, 2.0, 3.0, 4.0}) {
    WorkloadSpec spec;
    spec.tuple_size = 100;
    spec.num_build_tuples = geo.BuildTuples(100);
    spec.matches_per_build = m;
    RunRow("b", "matches", std::to_string(int(m)), spec, schemes, cfg,
           reporter.get());
  }

  std::printf("\n--- (c) varying %% of tuples with matches (100B) ---\n");
  PrintSeriesHeader("pct_match", schemes);
  for (double f : {0.5, 0.75, 1.0}) {
    WorkloadSpec spec;
    spec.tuple_size = 100;
    spec.num_build_tuples = geo.BuildTuples(100);
    spec.matches_per_build = 2.0;
    spec.build_match_fraction = f;
    spec.probe_match_fraction = f;
    RunRow("c", "pct_match", std::to_string(int(f * 100)), spec, schemes,
           cfg, reporter.get());
  }

  std::printf(
      "\npaper: group 2.4-2.9X, swp 2.1-2.7X, simple 1.1-1.2X over "
      "baseline\n");

  if (reporter && !reporter->WriteAndReport(flags)) return 1;
  return 0;
}
