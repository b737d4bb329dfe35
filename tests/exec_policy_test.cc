// Tests of the execution-policy dispatch layer (src/join/exec_policy.h)
// and the kernel-state hygiene invariants it relies on:
//  - Scheme <-> name round-trips through the single shared table; an
//    unknown name fails without touching the output.
//  - Two consecutive probe batches through every scheme produce
//    identical match counts (ResetForTuple leaves no state behind), and
//    the stage-2 claim / stage-3 release ledger balances to zero.
//  - The claimed-output ledger equals the simulator's own prefetch
//    count: the delta of prefetches_issued between prefetch_output
//    on/off runs is exactly the lines the kernel claims.
//  - A count-only probe copies no output but is charged exactly what a
//    materialising probe is: same simulator counters, same ledger
//    (each pass runs in a forked child, so both start from one heap).
//  - AggregateRelation produces the same groups under every scheme.

#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"
#include "join/chained_kernels.h"
#include "join/exec_policy.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "simcache/memory_sim.h"
#include "util/bitops.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

// ---------- scheme table round-trips ----------

TEST(SchemeTableTest, NameParsesBackToEveryScheme) {
  for (Scheme s : {Scheme::kBaseline, Scheme::kSimple, Scheme::kGroup,
                   Scheme::kSwp, Scheme::kCoro}) {
    Scheme parsed;
    ASSERT_TRUE(ParseScheme(SchemeName(s), &parsed)) << SchemeName(s);
    EXPECT_EQ(parsed, s);
  }
}

TEST(SchemeTableTest, UnknownNameFailsWithoutTouchingOutput) {
  Scheme s = Scheme::kSwp;
  EXPECT_FALSE(ParseScheme("amac", &s));
  EXPECT_FALSE(ParseScheme("", &s));
  EXPECT_EQ(s, Scheme::kSwp);
}

TEST(SchemeTableTest, NameListNamesEveryScheme) {
  std::string list = SchemeNameList();
  for (Scheme s : {Scheme::kBaseline, Scheme::kSimple, Scheme::kGroup,
                   Scheme::kSwp, Scheme::kCoro}) {
    EXPECT_NE(list.find(SchemeName(s)), std::string::npos) << list;
  }
}

TEST(SchemeTableTest, AllSchemesAreAvailable) {
  EXPECT_EQ(AllSchemes(),
            (std::vector<Scheme>{Scheme::kBaseline, Scheme::kSimple,
                                 Scheme::kGroup, Scheme::kSwp,
                                 Scheme::kCoro}));
}

// ---------- two-batch state hygiene ----------

struct BatchResult {
  uint64_t matches1 = 0;
  uint64_t matches2 = 0;
  ProbeStats stats1;
  ProbeStats stats2;
};

// Probes two batches back to back under `scheme` against one shared
// hash table, in the simulator. State pools are per-pass, so the second
// batch catches any state a scheme forgot to reset at the end of the
// first (the kernel-state hygiene ResetForTuple guards).
BatchResult RunTwoBatches(Scheme scheme, const JoinWorkload& w,
                          const Relation& probe2, const HashTable& ht,
                          uint32_t tuple_size) {
  sim::MemorySim simulator{sim::SimConfig{}};
  SimMemory mm(&simulator);
  KernelParams params;
  params.group_size = 7;
  params.prefetch_distance = 3;
  BatchResult r;
  Relation out1(ConcatSchema(w.build.schema(), w.probe.schema()));
  r.matches1 = ProbePartition(mm, scheme, w.probe, ht, tuple_size, params,
                              &out1, &r.stats1);
  Relation out2(ConcatSchema(w.build.schema(), w.probe.schema()));
  r.matches2 = ProbePartition(mm, scheme, probe2, ht, tuple_size, params,
                              &out2, &r.stats2);
  return r;
}

TEST(TwoBatchRegressionTest, AllSchemesAgreeAndLedgerBalances) {
  WorkloadSpec spec;
  spec.num_build_tuples = 4000;
  spec.tuple_size = 24;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.7;
  JoinWorkload w = GenerateJoinWorkload(spec);
  // Second batch: skewed keys in the build range, so batch 2 has a
  // different match/miss mix than batch 1.
  Relation probe2 = GenerateSkewedRelation(5000, 24, 0.9, 2000, 71);

  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    BuildBaseline(mm, w.build, &ht, KernelParams{});
  }

  BatchResult base =
      RunTwoBatches(Scheme::kBaseline, w, probe2, ht, spec.tuple_size);
  EXPECT_EQ(base.matches1, w.expected_matches);
  BatchResult group;
  for (Scheme s : AllSchemes()) {
    BatchResult r = RunTwoBatches(s, w, probe2, ht, spec.tuple_size);
    EXPECT_EQ(r.matches1, base.matches1) << SchemeName(s);
    EXPECT_EQ(r.matches2, base.matches2) << SchemeName(s);
    EXPECT_EQ(r.stats1.output_tuples, r.matches1) << SchemeName(s);
    EXPECT_EQ(r.stats2.output_tuples, r.matches2) << SchemeName(s);
    // Every stage-2 claim must be released by its stage 3 — across both
    // batches and every interleaving.
    EXPECT_EQ(r.stats1.leaked_out_bytes, 0u) << SchemeName(s);
    EXPECT_EQ(r.stats2.leaked_out_bytes, 0u) << SchemeName(s);
    if (s == Scheme::kGroup) group = r;
    // All prefetching schemes claim the same output *bytes* per tuple;
    // the line counts differ only where a claim straddles a line
    // boundary, which depends on the output offset at claim time and
    // hence the interleaving. Each tuple contributes at most one extra
    // straddled line, so the schemes' totals agree to within the number
    // of output tuples in the batch.
    if (s == Scheme::kSwp || s == Scheme::kCoro) {
      EXPECT_NEAR(static_cast<double>(r.stats1.claimed_prefetch_lines),
                  static_cast<double>(group.stats1.claimed_prefetch_lines),
                  static_cast<double>(r.matches1))
          << SchemeName(s);
      EXPECT_NEAR(static_cast<double>(r.stats2.claimed_prefetch_lines),
                  static_cast<double>(group.stats2.claimed_prefetch_lines),
                  static_cast<double>(r.matches2))
          << SchemeName(s);
      EXPECT_GT(r.stats1.claimed_prefetch_lines, 0u) << SchemeName(s);
    }
    // Simple prefetching (§7.1) only prefetches input pages and bucket
    // headers — it never claims output-tail lines.
    if (s == Scheme::kBaseline || s == Scheme::kSimple) {
      EXPECT_EQ(r.stats1.claimed_prefetch_lines, 0u) << SchemeName(s);
    }
  }
  // Baseline never prefetches, so it claims nothing; the prefetching
  // schemes must have claimed real output lines on a matching workload.
  EXPECT_EQ(base.stats1.claimed_prefetch_lines, 0u);
  EXPECT_GT(group.stats1.claimed_prefetch_lines, 0u);
}

// ---------- claimed-ledger vs. simulator crosscheck ----------

TEST(ClaimedLedgerCrosscheckTest, LedgerEqualsSimPrefetchDelta) {
  WorkloadSpec spec;
  spec.num_build_tuples = 3000;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    BuildBaseline(mm, w.build, &ht, KernelParams{});
  }

  // One probe pass under `scheme`, returning the simulator's prefetch
  // count and the kernel's claimed-lines ledger. With prefetch_output
  // off, the only dropped prefetches are the output-tail ones — all
  // other prefetch targets live in the shared hash table, at identical
  // addresses in both runs.
  auto probe_run = [&](Scheme scheme, bool prefetch_output) {
    sim::MemorySim simulator{sim::SimConfig{}};
    SimMemory mm(&simulator);
    KernelParams params;
    params.group_size = 11;
    params.prefetch_distance = 2;
    params.prefetch_output = prefetch_output;
    Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));
    ProbeStats stats;
    uint64_t n = ProbePartition(mm, scheme, w.probe, ht, spec.tuple_size,
                                params, &out, &stats);
    EXPECT_EQ(n, w.expected_matches) << SchemeName(scheme);
    return std::pair<uint64_t, uint64_t>(
        simulator.stats().prefetches_issued, stats.claimed_prefetch_lines);
  };

  for (Scheme s : AllSchemes()) {
    if (s == Scheme::kBaseline) continue;  // never prefetches
    auto [issued_on, claimed_on] = probe_run(s, true);
    auto [issued_off, claimed_off] = probe_run(s, false);
    EXPECT_EQ(claimed_off, 0u) << SchemeName(s);
    EXPECT_EQ(issued_on - issued_off, claimed_on) << SchemeName(s);
    // Simple prefetching never touches the output tail (§7.1), so its
    // ledger is legitimately zero; the stage-2 schemes must claim.
    if (s != Scheme::kSimple) {
      EXPECT_GT(claimed_on, 0u) << SchemeName(s);
    }
  }
}

// ---------- count-only probes: same simulated charges ----------

/// Every counter SimStats lists is zero in `d`; a failure names its key.
void ExpectZeroSimDiff(const sim::SimStats& d) {
  auto visit = [&](const char* key, auto member, auto...) {
    if constexpr (!std::is_member_function_pointer_v<decltype(member)>) {
      EXPECT_EQ(d.*member, 0u) << key;
    }
  };
  sim::SimStats::VisitFields(visit);
}

/// One probe pass's simulator counters and kernel ledger.
struct PassResult {
  sim::SimStats sim;
  ProbeStats ledger;
};
static_assert(std::is_trivially_copyable_v<PassResult>);

/// Runs `pass` in a child forked from this process and returns what it
/// reports. The simulator indexes its caches by real addresses, and a
/// pass allocates its staging page itself. Every child starts from this
/// process's heap as it stands, so two passes place their staging pages
/// at the same address, even under an allocator that does not hand
/// freed memory straight back (ASan's quarantine).
PassResult RunForked(const std::function<PassResult()>& pass) {
  int fds[2];
  HJ_CHECK(pipe(fds) == 0);
  const pid_t pid = fork();
  HJ_CHECK(pid >= 0);
  if (pid == 0) {
    close(fds[0]);
    const PassResult r = pass();
    _exit(write(fds[1], &r, sizeof(r)) == ssize_t(sizeof(r)) ? 0 : 1);
  }
  close(fds[1]);
  PassResult r;
  const ssize_t n = read(fds[0], &r, sizeof(r));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(n, ssize_t(sizeof(r)));
  return r;
}

/// Runs `pass` count-only (nullptr) and materialising (into `*out`),
/// each from the same heap, and expects the same simulator counters
/// and ledger. Returns the count-only pass's match count.
uint64_t ExpectCountOnlyChargedAsMaterialising(
    const std::function<PassResult(Relation*)>& pass, Relation* out) {
  const PassResult counted = RunForked([&] { return pass(nullptr); });
  const PassResult kept = RunForked([&] { return pass(out); });
  EXPECT_EQ(counted.ledger.output_tuples, kept.ledger.output_tuples);
  EXPECT_EQ(counted.ledger.claimed_prefetch_lines,
            kept.ledger.claimed_prefetch_lines);
  EXPECT_EQ(counted.ledger.leaked_out_bytes, kept.ledger.leaked_out_bytes);
  EXPECT_GT(counted.sim.busy_cycles, 0u);
  // Counters are unsigned: the diff is zero only where both agree.
  ExpectZeroSimDiff(fields::Diff(counted.sim, kept.sim));
  return counted.ledger.output_tuples;
}

// A count-only probe (out = nullptr) skips copying matches into its
// staging page but still allocates every staging slot and makes every
// memory-model call a materialising probe makes, so the simulator
// charges both the same cycles to the same addresses.
TEST(CountOnlyProbeTest, SimulatorChargesMatchMaterialisingProbe) {
  WorkloadSpec spec;
  spec.num_build_tuples = 6000;
  spec.tuple_size = 40;
  spec.matches_per_build = 2.0;
  spec.probe_match_fraction = 0.8;
  JoinWorkload w = GenerateJoinWorkload(spec);
  KernelParams params;
  params.group_size = 9;
  params.prefetch_distance = 2;
  // Made before any fork, so both modes start from the same heap.
  Relation out(ConcatSchema(w.build.schema(), w.probe.schema()));

  for (uint32_t parts : {1u, 5u}) {
    RealMemory real;
    const PartitionPlan plan = PlanPartitionPasses(parts, 0);
    std::vector<Relation> build_parts;
    std::vector<Relation> probe_parts;
    PartitionWithPlan(real, GraceConfig{}, w.build, plan, &build_parts);
    PartitionWithPlan(real, GraceConfig{}, w.probe, plan, &probe_parts);
    std::vector<std::unique_ptr<HashTable>> tables;
    std::vector<std::unique_ptr<ChainedHashTable>> chains;
    for (const Relation& part : build_parts) {
      tables.push_back(std::make_unique<HashTable>(
          ChooseBucketCount(part.num_tuples(), parts)));
      BuildPartition(real, Scheme::kBaseline, part, tables.back().get(),
                     params);
      chains.push_back(std::make_unique<ChainedHashTable>(
          ChooseBucketCount(part.num_tuples(), parts)));
      BuildChained(real, part, chains.back().get());
    }

    for (Scheme s : AllSchemes()) {
      SCOPED_TRACE(std::string(SchemeName(s)) + " at " +
                   std::to_string(parts) + " partitions");
      uint64_t matches = 0;
      for (uint32_t p = 0; p < parts; ++p) {
        matches += ExpectCountOnlyChargedAsMaterialising(
            [&](Relation* dest) {
              sim::MemorySim simulator{sim::SimConfig{}};
              SimMemory mm(&simulator);
              PassResult r;
              ProbePartition(mm, s, probe_parts[p], *tables[p],
                             spec.tuple_size, params, dest, &r.ledger);
              r.sim = simulator.stats();
              return r;
            },
            &out);
      }
      EXPECT_EQ(matches, w.expected_matches);
    }

    // The chained probe of §3 emits through the same sink.
    for (ChainedPrefetch mode :
         {ChainedPrefetch::kNone, ChainedPrefetch::kNextCell}) {
      SCOPED_TRACE("chained at " + std::to_string(parts) + " partitions");
      uint64_t matches = 0;
      for (uint32_t p = 0; p < parts; ++p) {
        matches += ExpectCountOnlyChargedAsMaterialising(
            [&](Relation* dest) {
              sim::MemorySim simulator{sim::SimConfig{}};
              SimMemory mm(&simulator);
              PassResult r;
              r.ledger.output_tuples =
                  ProbeChained(mm, probe_parts[p], *chains[p],
                               spec.tuple_size, mode, dest);
              r.sim = simulator.stats();
              return r;
            },
            &out);
      }
      EXPECT_EQ(matches, w.expected_matches);
    }
  }
}

// ---------- aggregate dispatch parity ----------

TEST(AggregatePolicyTest, AllSchemesProduceTheSameGroups) {
  Relation facts(Schema({{"key", AttrType::kInt32, 4},
                         {"value", AttrType::kInt64, 8},
                         {"pad", AttrType::kFixedChar, 8}}));
  Rng rng(11);
  const uint64_t kGroups = 700;
  std::map<uint32_t, int64_t> expected_sum;
  for (uint64_t i = 0; i < 50'000; ++i) {
    uint8_t t[20] = {};
    uint32_t key = uint32_t(rng.NextBounded(kGroups));
    int64_t value = int64_t(rng.NextBounded(100));
    std::memcpy(t, &key, 4);
    std::memcpy(t + 4, &value, 8);
    facts.Append(t, sizeof(t), HashKey32(key));
    expected_sum[key] += value;
  }

  RealMemory mm;
  KernelParams params;
  params.group_size = 9;
  params.prefetch_distance = 4;
  for (Scheme s : AllSchemes()) {
    HashAggTable agg(NextRelativelyPrime(kGroups, 31));
    AggregateRelation(mm, s, facts, 4, &agg, params);
    EXPECT_EQ(agg.num_groups(), expected_sum.size()) << SchemeName(s);
  }
}

// ---------- coroutine pipeline specifics ----------

TEST(CoroPipelineTest, OutputOrderMatchesSerialProbe) {
  WorkloadSpec spec;
  spec.num_build_tuples = 2000;
  spec.tuple_size = 16;
  spec.matches_per_build = 1.0;
  JoinWorkload w = GenerateJoinWorkload(spec);
  RealMemory mm;
  HashTable ht(ChooseBucketCount(w.build.num_tuples(), 31));
  BuildCoro(mm, w.build, &ht, KernelParams{});
  Relation out_serial(ConcatSchema(w.build.schema(), w.probe.schema()));
  Relation out_coro(ConcatSchema(w.build.schema(), w.probe.schema()));
  KernelParams params;
  uint64_t serial = ProbeBaseline(mm, w.probe, ht, spec.tuple_size, params,
                                  &out_serial);
  KernelParams coro_params;
  coro_params.group_size = 5;
  uint64_t coro = ProbeCoro(mm, w.probe, ht, spec.tuple_size, coro_params,
                            &out_coro);
  EXPECT_EQ(coro, serial);
  // Round-robin scheduling preserves input order, so the materialized
  // outputs are byte-identical, not merely equal in count.
  ASSERT_EQ(out_coro.num_tuples(), out_serial.num_tuples());
  std::vector<std::vector<uint8_t>> a, b;
  out_serial.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    a.emplace_back(t, t + len);
  });
  out_coro.ForEachTuple([&](const uint8_t* t, uint16_t len, uint32_t) {
    b.emplace_back(t, t + len);
  });
  EXPECT_EQ(a, b);
}

TEST(CoroPipelineTest, ChargesCoroOverheadPerResume) {
  // Every chain resume is one scheduler step: the simulated busy cycles
  // must include cost_stage_overhead_coro for each, making the policy's
  // overhead observable to the cost model.
  sim::SimConfig cfg;
  sim::MemorySim simulator(cfg);
  SimMemory mm(&simulator);
  uint64_t resumes = 0;
  RunCoroPipeline(mm, 4, [&](uint32_t) -> KernelCoro {
    return [](uint64_t* count) -> KernelCoro {
      for (int i = 0; i < 3; ++i) {
        ++*count;
        co_await KernelCoro::NextStage{};
      }
      ++*count;
    }(&resumes);
  });
  EXPECT_EQ(resumes, 4u * 4u);
  // Each of the 4 chains resumes 4 times (3 suspensions + final run)
  // plus the final done-detection sweep costs nothing extra.
  EXPECT_GE(simulator.stats().busy_cycles,
            16u * cfg.cost_stage_overhead_coro);
}

}  // namespace
}  // namespace hashjoin
