// Real-hardware measurement of hash-based group-by aggregation — the
// paper's proposed extension — comparing the baseline loop against group,
// software-pipelined and coroutine prefetching across group counts
// (cache-resident to far-beyond-cache accumulators).
//
// Every run writes one BenchReporter record per configuration (see
// src/perf/bench_reporter.h), agg/<scheme>/groups=N at 16K and 4M groups
// (1K under --smoke), to BENCH_real_agg.json or to the file --json=PATH
// names. --smoke shrinks the fact table for ctest; --scheme picks the
// schemes; --tune=static calibrates T/Tnext plus the LFB ceiling and
// picks G and D from the models via the shared bench::ResolveTuning
// resolver.

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "join/exec_policy.h"
#include "mem/memory_model.h"
#include "model/cost_model.h"
#include "perf/bench_reporter.h"
#include "perf/calibrate.h"
#include "simcache/sim_config.h"
#include "util/bitops.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

/// The fact table plus, per key, the count and sum an exact
/// aggregation must produce.
struct Facts {
  Relation rel;
  std::vector<uint64_t> count;  // indexed by key
  std::vector<int64_t> sum;
  uint64_t distinct_keys = 0;

  /// Whether `agg` holds exactly one group per distinct key, each with
  /// the reference count and sum.
  bool Matches(const HashAggTable& agg) const {
    if (agg.num_groups() != distinct_keys) return false;
    std::vector<bool> seen(count.size(), false);
    bool ok = true;
    agg.ForEachGroup([&](const AggState& s) {
      if (s.key >= count.size() || seen[s.key] ||
          s.count != count[s.key] || s.sum != sum[s.key]) {
        ok = false;
        return;
      }
      seen[s.key] = true;
    });
    return ok;
  }
};

Facts MakeFacts(uint64_t groups, uint64_t num_tuples) {
  Facts f{Relation(Schema({{"key", AttrType::kInt32, 4},
                           {"value", AttrType::kInt64, 8},
                           {"pad", AttrType::kFixedChar, 8}})),
          std::vector<uint64_t>(groups, 0), std::vector<int64_t>(groups, 0)};
  Rng rng(5);
  for (uint64_t i = 0; i < num_tuples; ++i) {
    uint8_t t[20] = {};
    uint32_t key = uint32_t(rng.NextBounded(groups));
    int64_t value = int64_t(rng.NextBounded(100));
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    f.rel.Append(t, sizeof(t), HashKey32(key));
    if (f.count[key]++ == 0) ++f.distinct_keys;
    f.sum[key] += value;
  }
  return f;
}

int Run(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke", false);
  const uint64_t num_facts = smoke ? 100'000 : 4'000'000;

  perf::BenchReporter::Options opt;
  opt.bench_name = "real_agg";
  std::string path = flags.GetString("json", "");
  if (!path.empty() && path != "true") opt.output_path = path;
  opt.trials = int(flags.GetInt("trials", smoke ? 2 : 5));
  opt.warmup = int(flags.GetInt("warmup", 1));
  perf::BenchReporter reporter(std::move(opt));

  // Shared tuning resolution (see bench_common.h): one path for every
  // scheme, clamped against the measured LFB/MSHR ceiling.
  const bench::TuningResolution tuning = bench::ResolveTuning(
      flags, AggregateCodeCosts(), bench::PaperJoinDefaults());
  const KernelParams tuned = tuning.params;
  if (tuning.calibrated) reporter.SetCalibration(tuning.calibration);

  std::vector<uint64_t> group_counts =
      smoke ? std::vector<uint64_t>{1 << 10}
            : std::vector<uint64_t>{1 << 14, 1 << 22};
  RealMemory mm;
  // Scheme set: every scheme except simple (no inter-tuple protocol,
  // uninteresting for the accumulator-bound loop); --scheme overrides.
  // The G column doubles as the coroutine interleave width.
  const std::vector<Scheme> schemes =
      flags.Has("scheme")
          ? bench::SchemesFromFlag(flags)
          : std::vector<Scheme>{Scheme::kBaseline, Scheme::kGroup,
                                Scheme::kSwp, Scheme::kCoro};

  for (uint64_t groups : group_counts) {
    const Facts facts = MakeFacts(groups, num_facts);
    for (Scheme scheme : schemes) {
      const KernelParams params = tuned;
      std::unique_ptr<HashAggTable> agg;
      uint64_t out_groups = 0;
      JsonValue config = JsonValue::Object();
      config.Set("phase", "aggregate");
      config.Set("scheme", SchemeName(scheme));
      config.Set("G", params.group_size);
      config.Set("D", params.prefetch_distance);
      config.Set("threads", 1);
      config.Set("groups", groups);
      config.Set("fact_tuples", facts.rel.num_tuples());
      JsonValue& rec = reporter.AddRecord(
          std::string("agg/") + SchemeName(scheme) + "/groups=" +
              std::to_string(groups),
          std::move(config),
          /*body=*/
          [&] {
            AggregateRelation(mm, scheme, facts.rel, 4, agg.get(), params);
            out_groups = agg->num_groups();
          },
          /*setup=*/
          [&] {
            agg = std::make_unique<HashAggTable>(
                NextRelativelyPrime(groups, 31));
          });
      rec.Set("outputs", out_groups);
      rec.Set("verified", facts.Matches(*agg));
      rec.Set("tuning", tuning.ToJson());
    }
  }

  if (!reporter.WriteAndReport(flags)) return 1;
  return 0;
}

}  // namespace
}  // namespace hashjoin

int main(int argc, char** argv) {
  hashjoin::FlagParser flags;
  flags.Parse(argc, argv);
  return hashjoin::Run(flags);
}
