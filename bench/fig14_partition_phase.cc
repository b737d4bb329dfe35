// Figure 14: partition phase performance. (a) varies the number of
// partitions from 25 to 800 over a fixed source relation: simple
// prefetching wins while the output buffers fit in L2 (~128 pages), then
// collapses; group/software-pipelined prefetching win beyond. (b) grows
// the relation while keeping the partition size fixed (partition count
// grows with it). The combined scheme picks per the cache capacity. The
// scheme columns are whatever this binary compiled in, plus "combined".

// --json[=path] writes BENCH_fig14.json in the shared harness schema
// (see src/perf/bench_reporter.h): one record per (section, x, scheme)
// with the simulated stall breakdown; deterministic, single trial.

#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "perf/bench_reporter.h"

using namespace hashjoin;
using namespace hashjoin::bench;

namespace {

struct FigureCtx {
  sim::SimConfig cfg;
  KernelParams params;
  std::vector<Scheme> schemes;
  uint32_t coro_width = 1;
  perf::BenchReporter* reporter = nullptr;
};

void PrintHeader(const FigureCtx& ctx, const char* x_name,
                 const char* x2_name) {
  std::printf("%-14s", x_name);
  if (x2_name) std::printf(" %-10s", x2_name);
  for (Scheme s : ctx.schemes) std::printf(" %14s", SchemeName(s));
  std::printf(" %14s\n", "combined");
}

// One partitioning run, optionally recorded. `scheme_label` is the
// scheme name or "combined"; for combined runs `s` is the large-set
// fallback scheme PartitionCombined dispatches to.
SimRun RunCell(const FigureCtx& ctx, const std::string& section,
               const std::string& scheme_label, Scheme s, bool combined,
               const Relation& input, uint32_t parts,
               const KernelParams& params) {
  SimRun r;
  auto run = [&] {
    r = RunPartitionPhaseSim(s, input, parts, params, ctx.cfg, combined);
  };
  if (ctx.reporter) {
    JsonValue config = JsonValue::Object();
    config.Set("phase", "partition");
    config.Set("scheme", scheme_label);
    config.Set("G", params.group_size);
    config.Set("D", params.prefetch_distance);
    config.Set("threads", 1);
    config.Set("section", section);
    config.Set("partitions", parts);
    config.Set("input_tuples", input.num_tuples());
    JsonValue& rec = ctx.reporter->AddRecord(
        "fig14" + section + "/" + scheme_label + "/parts=" +
            std::to_string(parts),
        std::move(config), run);
    rec.Set("outputs", r.outputs);
    rec.Set("verified", r.outputs == input.num_tuples());
    kSimBlock.Set(&rec, r.stats);
  } else {
    run();
  }
  return r;
}

void RunRowSchemes(const FigureCtx& ctx, const std::string& section,
                   const Relation& input, uint32_t parts) {
  for (Scheme s : ctx.schemes) {
    KernelParams p = ctx.params;
    if (s == Scheme::kCoro) p.group_size = ctx.coro_width;
    SimRun r = RunCell(ctx, section, SchemeName(s), s, /*combined=*/false,
                       input, parts, p);
    std::printf(" %14llu", (unsigned long long)r.stats.TotalCycles());
  }
  SimRun comb = RunCell(ctx, section, "combined", Scheme::kGroup,
                        /*combined=*/true, input, parts, ctx.params);
  std::printf(" %14llu\n", (unsigned long long)comb.stats.TotalCycles());
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  BenchGeometry geo;
  geo.scale = ScaleFromFlags(flags, 0.1);

  FigureCtx ctx;
  ctx.schemes = SchemesFromFlag(flags);
  ctx.params.group_size = uint32_t(flags.GetInt("g", 14));
  ctx.params.prefetch_distance = uint32_t(flags.GetInt("d", 4));
  // The coroutine interleave width defaults to the Theorem-1 choice for
  // the partition cost vector; an explicit --g pins it too.
  ctx.coro_width = flags.Has("g")
                       ? ctx.params.group_size
                       : TunedCoroWidth(PartitionCodeCosts(), ctx.cfg);

  std::unique_ptr<perf::BenchReporter> reporter;
  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "fig14";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = int(flags.GetInt("trials", 1));
    opt.warmup = int(flags.GetInt("warmup", 0));
    // The measured quantity is simulated cycles, not host time.
    opt.collect_counters = false;
    reporter = std::make_unique<perf::BenchReporter>(std::move(opt));
    ctx.reporter = reporter.get();
  }

  std::printf("=== Figure 14: partition phase performance [scale=%.2f] "
              "===\n", geo.scale);

  std::printf("\n--- (a) varying number of partitions (10M 100B tuples, "
              "scaled) ---\n");
  uint64_t tuples = uint64_t(10'000'000 * geo.scale);
  Relation input = GenerateSourceRelation(tuples, 100, 42);
  PrintHeader(ctx, "partitions", nullptr);
  for (uint32_t parts : {25u, 50u, 100u, 200u, 400u, 800u}) {
    std::printf("%-14u", parts);
    RunRowSchemes(ctx, "a", input, parts);
  }

  std::printf("\n--- (b) varying relation size, fixed partition size ---\n");
  // Partition size held fixed while the relation (and hence the
  // partition count) grows, stepping 26..152 like the paper's run. The
  // crossover depends on the partition count (output buffers vs. L2),
  // so a reduced per-partition tuple count preserves the shape while
  // bounding memory.
  uint64_t part_tuples = uint64_t(flags.GetInt("part_tuples", 2000));
  PrintHeader(ctx, "tuples", "parts");
  for (uint32_t parts : {26u, 51u, 76u, 102u, 127u, 152u}) {
    uint64_t n = part_tuples * parts;
    Relation rel = GenerateSourceRelation(n, 100, 7);
    std::printf("%-14llu %-10u", (unsigned long long)n, parts);
    RunRowSchemes(ctx, "b", rel, parts);
  }

  std::printf(
      "\npaper: simple best while buffers fit in L2 (<=~128 partitions), "
      "then deteriorates; group/swp win beyond; combined achieves "
      "1.9-2.6X overall\n");

  if (reporter && !reporter->WriteAndReport(flags)) return 1;
  return 0;
}
