// Multi-query join service under memory pressure: N simultaneous
// disk-backed GRACE joins admitted through the JoinScheduler, sharing
// one work-stealing pool and one MemoryBroker whose budget is smaller
// than the queries' combined working sets. The big high-priority query
// acquires the whole budget first; the others' admission minima force
// broker revokes, so it demonstrably spills mid-join (revoke_spills),
// then un-spills as finishing queries release their grants. An overload
// burst past the admission queue shows backpressure as clean
// kResourceExhausted rejections.
//
// Per-query outcomes (wall time, queue latency, grant history, spill
// and I/O-recovery counters) print as a table; --json[=path] writes
// BENCH_concurrent.json in the shared harness schema — one record per
// query plus a "service" aggregate with tail latencies. The bench-smoke
// fixture gates on `bench_diff --check --require=...` so the promised
// metrics (revoke_spills, queue tail latency) cannot silently drop out
// of the schema.
//
// --revoke-storm replaces the default sections with rapid admit/revoke
// cycles at 2x memory oversubscription: every query desires its whole
// working set, the budget covers half of the concurrent demand, and the
// robust hybrid join absorbs the churn — all queries must finish with
// correct counts, every degradation classified by reason. The storm's
// smoke fixture gates on tail_latency.run_p99 and total_io_bytes.
//
//   concurrent_bench --queries=8 --mem-budget=BYTES [--smoke] [--json]
//                    [--max-concurrent=4] [--pool-threads=4]
//                    [--base-tuples=20000] [--overload=N] [--revoke-storm]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_blocks.h"
#include "hash/hash_table.h"
#include "join/grace_disk.h"
#include "perf/bench_reporter.h"
#include "sched/join_scheduler.h"
#include "storage/buffer_manager.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload/generator.h"

using namespace hashjoin;

namespace {

constexpr uint32_t kTupleSize = 20;
constexpr uint64_t kKiB = 1024;

struct QuerySpec {
  std::string name;
  int priority = 0;
  uint64_t min_grant = 0;
  uint64_t desired_grant = 0;
  uint32_t num_partitions = 8;
  std::unique_ptr<JoinWorkload> workload;  // Relation is move-only
  double seq_seconds = 0;  // sequential (unthrottled) baseline
};

DiskConfig BenchDisk(bool smoke) {
  DiskConfig cfg;
  if (smoke) {
    cfg.bandwidth_mb_per_s = 20000;
    cfg.request_latency_us = 0;
  }
  return cfg;
}

BufferManagerConfig BenchDisks(bool smoke) {
  BufferManagerConfig cfg;
  cfg.num_disks = 2;
  cfg.disk = BenchDisk(smoke);
  return cfg;
}

/// One query's body: its own disk array (scans are single-user), the
/// live grant wired into both the join's sizing decisions and the
/// scanner's read-ahead window, recovery counters diffed into stats.
/// Runs the robust dynamic hybrid join: fan-out from the observed input
/// histogram, partitions resident until a revoke evicts smallest-loss
/// victims (with the grant's revoke listener as the eager hint), role
/// reversal and the full degradation ladder on the spilled pairs.
StatusOr<uint64_t> RunQuery(QueryContext& ctx, const QuerySpec& spec,
                            bool smoke) {
  BufferManager bm(BenchDisks(smoke));
  bm.SetReadAheadBudget(ctx.GrantFn());

  DiskJoinConfig cfg;
  cfg.num_partitions = spec.num_partitions;
  cfg.dynamic_budget = ctx.GrantFn();
  cfg.initial_grant_bytes = ctx.grant().initial_bytes();
  cfg.adaptive_fanout = true;
  cfg.hybrid_residency = true;
  cfg.install_revoke_listener = ctx.RevokeListenerInstaller();
  DiskGraceJoin join(&bm, cfg);
  HJ_ASSIGN_OR_RETURN(auto build, join.StoreRelation(spec.workload->build));
  HJ_ASSIGN_OR_RETURN(auto probe, join.StoreRelation(spec.workload->probe));
  HJ_ASSIGN_OR_RETURN(DiskJoinResult r, join.Join(build, probe));

  ctx.stats().recovery = r.recovery;
  ctx.stats().io = bm.recovery_stats();
  ctx.stats().readahead_throttles = bm.readahead_throttles();
  ctx.stats().spill_levels = std::move(r.spill_levels);
  return r.output_tuples;
}

/// One query's record: the service-measured envelope, the outcome and
/// the query's stats blocks.
JsonValue& AddQueryRecord(perf::BenchReporter* reporter,
                          const std::string& name, const QueryStats& qs,
                          const QuerySpec& spec) {
  JsonValue config = JsonValue::Object();
  config.Set("build_tuples", spec.workload->build.num_tuples());
  config.Set("probe_tuples", spec.workload->probe.num_tuples());
  config.Set("tuple_size", kTupleSize);
  config.Set("priority", qs.priority);
  config.Set("min_grant_bytes", spec.min_grant);
  config.Set("desired_grant_bytes", spec.desired_grant);
  config.Set("num_partitions", spec.num_partitions);
  JsonValue& rec = reporter->AddMeasuredRecord(
      name, std::move(config), qs.run_seconds, bench::kServiceTimed);
  rec.Set("status", qs.status.ok() ? "ok" : qs.status.ToString());
  rec.Set("queue_seconds", qs.queue_seconds);
  rec.Set("outputs", qs.output_tuples);
  rec.Set("verified", qs.output_tuples == spec.workload->expected_matches);
  bench::kGrantBlock.Set(&rec, qs.grant);
  bench::kRecoveryBlock.Set(&rec, qs.recovery);
  bench::kIoRecoveryBlock.Set(&rec, qs.io);
  rec.Set("total_io_bytes", qs.io.bytes_read + qs.io.bytes_written);
  bench::kSpillLevelsBlock.Set(&rec, qs.spill_levels);
  return rec;
}

/// --revoke-storm: rapid admit/revoke cycles at 2x memory
/// oversubscription. Every query desires its full working set but
/// concedes a small admission minimum, and the broker budget covers only
/// half of what the concurrently running queries want — so each
/// admission revokes the running queries' surplus and each completion
/// re-grows them, a grant churn storm. The robust hybrid join must ride
/// it out: all queries complete with correct match counts and every
/// over-budget moment is classified by a degradation reason.
int RunRevokeStorm(const FlagParser& flags, bool smoke) {
  const int num_queries = int(flags.GetInt("queries", 8));
  const uint64_t base_tuples =
      uint64_t(flags.GetInt("base-tuples", smoke ? 2500 : 15000));

  const uint64_t pages = (base_tuples * (kTupleSize + 6)) / (8 * kKiB) + 1;
  const uint64_t working_set =
      pages * 8 * kKiB + HashTable::EstimateBytes(base_tuples);

  SchedulerConfig sched_cfg;
  sched_cfg.max_concurrent = uint32_t(flags.GetInt("max-concurrent", 4));
  sched_cfg.pool_threads = uint32_t(flags.GetInt("pool-threads", 4));
  sched_cfg.max_queue = uint32_t(std::max(1, num_queries));
  // Half of the concurrent queries' combined desire = 2x oversubscribed.
  const uint64_t mem_budget = uint64_t(flags.GetInt(
      "mem-budget", int64_t(working_set * sched_cfg.max_concurrent / 2)));
  sched_cfg.memory_budget = mem_budget;
  // --cache-bytes > 0 adds the hash-table cache as the lowest-priority
  // revocable grant on top of the storm: its surplus must drain before
  // any query grant is squeezed (verified below by the broker ledger).
  sched_cfg.cache_bytes = uint64_t(flags.GetInt("cache-bytes", 0));

  std::vector<QuerySpec> specs;
  for (int q = 0; q < num_queries; ++q) {
    QuerySpec spec;
    spec.name = "s" + std::to_string(q);
    spec.priority = q % 3;  // mixed priorities keep admissions reordering
    WorkloadSpec w;
    w.tuple_size = kTupleSize;
    w.seed = uint64_t(300 + q);
    w.num_build_tuples = base_tuples;
    spec.min_grant = std::max<uint64_t>(mem_budget / 8, 8 * kKiB);
    spec.desired_grant = working_set;
    spec.workload = std::make_unique<JoinWorkload>(GenerateJoinWorkload(w));
    specs.push_back(std::move(spec));
  }

  std::printf("=== Revoke storm: %d queries, budget %.1f KiB, "
              "working set %.1f KiB each, max_concurrent=%u "
              "(%.1fx oversubscribed) ===\n\n",
              num_queries, double(mem_budget) / 1024.0,
              double(working_set) / 1024.0, sched_cfg.max_concurrent,
              double(working_set) * double(sched_cfg.max_concurrent) /
                  double(mem_budget));

  JoinScheduler sched(sched_cfg);
  for (const QuerySpec& spec : specs) {
    JoinRequest req;
    req.name = spec.name;
    req.priority = spec.priority;
    req.min_grant_bytes = spec.min_grant;
    req.desired_grant_bytes = spec.desired_grant;
    req.body = [&spec, smoke](QueryContext& ctx) {
      return RunQuery(ctx, spec, smoke);
    };
    auto id = sched.Submit(std::move(req));
    HJ_CHECK(id.ok()) << "storm query rejected: " << id.status().ToString();
  }
  ServiceStats stats = sched.Drain();

  // --- verification + degradation tally ---
  std::printf("%-10s %-8s %9s %9s %12s %7s %7s %7s %7s %7s\n", "query",
              "status", "queue_s", "run_s", "output", "revokes", "v_spill",
              "unspill", "reverse", "split");
  uint64_t bad_counts = 0, total_io_bytes = 0;
  DiskJoinRecovery deg;  // summed degradation ledger across queries
  std::vector<double> run_seconds, queue_seconds;
  for (const QueryStats& qs : stats.queries) {
    const QuerySpec* spec = nullptr;
    for (const QuerySpec& s : specs) {
      if (s.name == qs.name) spec = &s;
    }
    HJ_CHECK(spec != nullptr) << "unknown storm query " << qs.name;
    bool correct =
        qs.status.ok() && qs.output_tuples == spec->workload->expected_matches;
    if (!correct) ++bad_counts;
    total_io_bytes += qs.io.bytes_read + qs.io.bytes_written;
    fields::Add(deg, qs.recovery);
    run_seconds.push_back(qs.run_seconds);
    queue_seconds.push_back(qs.queue_seconds);
    std::printf("%-10s %-8s %9.4f %9.4f %12llu %7llu %7llu %7llu %7llu "
                "%7llu%s\n",
                qs.name.c_str(), qs.status.ok() ? "ok" : "FAILED",
                qs.queue_seconds, qs.run_seconds,
                (unsigned long long)qs.output_tuples,
                (unsigned long long)qs.grant.revokes,
                (unsigned long long)qs.recovery.victim_spills,
                (unsigned long long)qs.recovery.victim_unspills,
                (unsigned long long)qs.recovery.role_reversals,
                (unsigned long long)qs.recovery.recursive_splits,
                correct ? "" : "  << WRONG COUNT");
  }
  // Zero-attribution invariant: with the cache enabled, no query grant
  // may be cut while the cache still held revocable surplus — cached
  // tables are strictly the first memory to go.
  const uint64_t cache_misordered =
      sched.broker().normal_revokes_with_cache_surplus();
  const bool service_ok =
      bad_counts == 0 && stats.failed == 0 &&
      stats.completed == uint64_t(num_queries) && cache_misordered == 0;
  std::printf("\nstorm: %llu completed, %llu failed; makespan %.4fs; "
              "%llu broker revokes, %llu re-grows\n",
              (unsigned long long)stats.completed,
              (unsigned long long)stats.failed, stats.makespan_seconds,
              (unsigned long long)sched.broker().total_revokes(),
              (unsigned long long)sched.broker().total_regrows());
  std::printf("degradations: %llu reverse, %llu split, %llu chunked, "
              "%llu bnl, %llu victim-spill, %llu victim-unspill; "
              "total I/O %.1f KiB\n",
              (unsigned long long)deg.role_reversals,
              (unsigned long long)deg.recursive_splits,
              (unsigned long long)deg.chunked_fallbacks,
              (unsigned long long)deg.bnl_fallbacks,
              (unsigned long long)deg.victim_spills,
              (unsigned long long)deg.victim_unspills,
              double(total_io_bytes) / 1024.0);
  if (sched_cfg.cache_bytes > 0) {
    std::printf("cache grant: %.1f KiB revoked from cache class, %llu "
                "normal revokes with cache surplus remaining%s\n",
                double(sched.broker().cache_revoked_bytes()) / 1024.0,
                (unsigned long long)cache_misordered,
                cache_misordered == 0 ? " (ok)" : "  << ORDER VIOLATION");
  }
  if (!service_ok) {
    std::printf("FAILURE: %llu queries wrong or failed, %llu cache-order "
                "violations\n",
                (unsigned long long)(bad_counts + stats.failed),
                (unsigned long long)cache_misordered);
  }

  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "concurrent_storm";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = 1;
    opt.warmup = 0;
    opt.collect_counters = false;
    perf::BenchReporter reporter(std::move(opt));

    for (const QueryStats& qs : stats.queries) {
      const QuerySpec* spec = nullptr;
      for (const QuerySpec& s : specs) {
        if (s.name == qs.name) spec = &s;
      }
      if (spec == nullptr) continue;
      AddQueryRecord(&reporter, "storm/" + qs.name, qs, *spec);
    }

    JsonValue config = JsonValue::Object();
    config.Set("queries", num_queries);
    config.Set("mem_budget", mem_budget);
    config.Set("working_set", working_set);
    config.Set("max_concurrent", sched_cfg.max_concurrent);
    config.Set("pool_threads", sched_cfg.pool_threads);
    config.Set("cache_bytes", sched_cfg.cache_bytes);
    JsonValue& rec = reporter.AddMeasuredRecord(
        "storm", std::move(config), stats.makespan_seconds,
        bench::kServiceTimed);
    fields::AppendJson(stats, &rec);
    rec.Set("broker_revokes", sched.broker().total_revokes());
    rec.Set("broker_regrows", sched.broker().total_regrows());
    cache::CacheStats cache_stats;
    if (sched.table_cache() != nullptr) {
      cache_stats = sched.table_cache()->stats();
    }
    bench::kCacheBlock.Set(&rec, cache_stats, sched.broker().cache_ledger());
    bench::kRecoveryBlock.Set(&rec, deg);
    rec.Set("total_io_bytes", total_io_bytes);
    rec.Set("verified", service_ok);
    perf::kTailLatencyBlock.Set(
        &rec, perf::TailLatency::Of(run_seconds, queue_seconds));

    if (!reporter.WriteAndReport(flags)) return 1;
  }
  return service_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  const bool smoke = flags.Has("smoke");
  if (flags.Has("revoke-storm")) return RunRevokeStorm(flags, smoke);
  const int num_queries = int(flags.GetInt("queries", 8));
  const uint64_t base_tuples =
      uint64_t(flags.GetInt("base-tuples", smoke ? 3000 : 20000));

  // The big query's per-partition build footprint sets the memory scale:
  // a budget of 1.2x that footprint means the query fits while it holds
  // its full grant, and a single concurrent revoke (another query's
  // 0.4-budget minimum) pushes it below the footprint — so its next
  // sizing decision spills, tallied as a revoke_spill.
  const uint64_t big_tuples = 4 * base_tuples;
  const uint32_t big_partitions = 4;
  const uint64_t part_tuples = big_tuples / big_partitions;
  const uint64_t part_pages = (part_tuples * (kTupleSize + 6)) / (8 * kKiB) + 1;
  const uint64_t part_need =
      part_pages * 8 * kKiB + HashTable::EstimateBytes(part_tuples);
  const uint64_t mem_budget =
      uint64_t(flags.GetInt("mem-budget", int64_t(part_need * 6 / 5)));

  SchedulerConfig sched_cfg;
  sched_cfg.max_concurrent = uint32_t(flags.GetInt("max-concurrent", 4));
  sched_cfg.pool_threads = uint32_t(flags.GetInt("pool-threads", 4));
  sched_cfg.max_queue = uint32_t(flags.GetInt(
      "max-queue", int64_t(std::max(1, num_queries))));
  sched_cfg.memory_budget = mem_budget;

  // --- workloads: one big high-priority query plus mixed-size rest ---
  std::vector<QuerySpec> specs;
  uint64_t combined_working_set = 0;
  for (int q = 0; q < num_queries; ++q) {
    QuerySpec spec;
    spec.name = "q" + std::to_string(q);
    WorkloadSpec w;
    w.tuple_size = kTupleSize;
    w.seed = uint64_t(100 + q);
    if (q == 0) {
      w.num_build_tuples = big_tuples;
      spec.priority = 10;  // starts first, holds the whole budget
      spec.num_partitions = big_partitions;
      spec.min_grant = mem_budget / 16;
      spec.desired_grant = mem_budget;
    } else {
      w.num_build_tuples = base_tuples * uint64_t(1 + q % 3);
      spec.min_grant = mem_budget * 2 / 5;
      spec.desired_grant = mem_budget / 2;
    }
    spec.workload = std::make_unique<JoinWorkload>(GenerateJoinWorkload(w));
    combined_working_set +=
        w.num_build_tuples * kTupleSize +
        HashTable::EstimateBytes(w.num_build_tuples);
    specs.push_back(std::move(spec));
  }

  std::printf("=== Concurrent join service: %d queries, budget %.1f KiB "
              "(combined working sets %.1f KiB) ===\n\n",
              num_queries, double(mem_budget) / 1024.0,
              double(combined_working_set) / 1024.0);

  // --- sequential baseline: each join alone, unlimited memory ---
  for (QuerySpec& spec : specs) {
    BufferManager bm(BenchDisks(smoke));
    DiskGraceJoin join(&bm, DiskJoinConfig{});
    WallTimer timer;
    auto build = join.StoreRelation(spec.workload->build);
    auto probe = join.StoreRelation(spec.workload->probe);
    HJ_CHECK(build.ok() && probe.ok());
    auto r = join.Join(build.value(), probe.value());
    HJ_CHECK(r.ok()) << r.status().ToString();
    HJ_CHECK(r.value().output_tuples == spec.workload->expected_matches)
        << spec.name << " sequential run produced the wrong count";
    spec.seq_seconds = timer.ElapsedSeconds();
  }

  // --- concurrent run through the scheduler ---
  JoinScheduler sched(sched_cfg);
  for (const QuerySpec& spec : specs) {
    JoinRequest req;
    req.name = spec.name;
    req.priority = spec.priority;
    req.min_grant_bytes = spec.min_grant;
    req.desired_grant_bytes = spec.desired_grant;
    req.body = [&spec, smoke](QueryContext& ctx) {
      return RunQuery(ctx, spec, smoke);
    };
    auto id = sched.Submit(std::move(req));
    HJ_CHECK(id.ok()) << "real query rejected: " << id.status().ToString();
  }

  // Overload burst: more submissions than the queue can hold while the
  // runners are busy. Rejections come back as kResourceExhausted
  // Status — the backpressure contract — and the accepted ones are
  // trivial bodies that drain quickly.
  const int overload = int(flags.GetInt("overload", 2 * num_queries));
  int overload_accepted = 0, overload_rejected = 0;
  for (int i = 0; i < overload; ++i) {
    JoinRequest req;
    req.name = "overload" + std::to_string(i);
    req.min_grant_bytes = 4 * kKiB;
    req.desired_grant_bytes = 4 * kKiB;
    req.body = [](QueryContext&) -> StatusOr<uint64_t> {
      return uint64_t(0);
    };
    auto id = sched.Submit(std::move(req));
    if (id.ok()) {
      ++overload_accepted;
    } else {
      HJ_CHECK(id.status().code() == StatusCode::kResourceExhausted)
          << id.status().ToString();
      ++overload_rejected;
    }
  }

  ServiceStats stats = sched.Drain();

  // --- per-query table + verification ---
  std::printf("%-10s %-8s %9s %9s %12s %9s %7s %7s %7s %9s\n", "query",
              "status", "queue_s", "run_s", "output", "seq_s", "grant0",
              "grantL", "revokes", "rv_spills");
  uint64_t bad_counts = 0, total_io_bytes = 0;
  DiskJoinRecovery recovery;  // summed across queries
  std::vector<double> run_seconds, queue_seconds;
  for (const QueryStats& qs : stats.queries) {
    const QuerySpec* spec = nullptr;
    for (const QuerySpec& s : specs) {
      if (s.name == qs.name) spec = &s;
    }
    if (spec == nullptr) continue;  // overload filler
    bool correct =
        qs.status.ok() && qs.output_tuples == spec->workload->expected_matches;
    if (!correct) ++bad_counts;
    fields::Add(recovery, qs.recovery);
    total_io_bytes += qs.io.bytes_read + qs.io.bytes_written;
    run_seconds.push_back(qs.run_seconds);
    queue_seconds.push_back(qs.queue_seconds);
    std::printf("%-10s %-8s %9.4f %9.4f %12llu %9.4f %6lluK %6lluK %7llu "
                "%9llu%s\n",
                qs.name.c_str(), qs.status.ok() ? "ok" : "FAILED",
                qs.queue_seconds, qs.run_seconds,
                (unsigned long long)qs.output_tuples, spec->seq_seconds,
                (unsigned long long)(qs.grant.initial_bytes / 1024),
                (unsigned long long)(qs.grant.low_bytes / 1024),
                (unsigned long long)qs.grant.revokes,
                (unsigned long long)qs.recovery.revoke_spills,
                correct ? "" : "  << WRONG COUNT");
  }
  std::printf("\nservice: %llu submitted, %llu rejected, %llu completed, "
              "%llu failed; makespan %.4fs\n",
              (unsigned long long)stats.submitted,
              (unsigned long long)stats.rejected,
              (unsigned long long)stats.completed,
              (unsigned long long)stats.failed, stats.makespan_seconds);
  std::printf("memory: %llu broker revokes, %llu re-grows; %llu "
              "revoke-forced spills, %llu re-grant un-spills\n",
              (unsigned long long)sched.broker().total_revokes(),
              (unsigned long long)sched.broker().total_regrows(),
              (unsigned long long)recovery.revoke_spills,
              (unsigned long long)recovery.regrant_unspills);
  std::printf("overload burst: %d accepted, %d rejected (backpressure)\n",
              overload_accepted, overload_rejected);
  const perf::TailLatency tail = perf::TailLatency::Of(run_seconds,
                                                       queue_seconds);
  std::printf("latency: run p50=%.4fs p95=%.4fs max=%.4fs; queue "
              "p50=%.4fs p95=%.4fs max=%.4fs\n",
              tail.run_p50, tail.run_p95, tail.run_max, tail.queue_p50,
              tail.queue_p95, tail.queue_max);

  bool service_ok = bad_counts == 0 && stats.failed == 0;
  if (recovery.revoke_spills == 0) {
    std::printf("WARNING: no revoke-forced spill observed — raise "
                "--queries or lower --mem-budget\n");
  }
  if (!service_ok) {
    std::printf("FAILURE: %llu queries wrong or failed\n",
                (unsigned long long)bad_counts);
  }

  // --- JSON ---
  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "concurrent";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = 1;
    opt.warmup = 0;
    // Wall times come from the service, not the trial harness.
    opt.collect_counters = false;
    perf::BenchReporter reporter(std::move(opt));

    for (const QueryStats& qs : stats.queries) {
      const QuerySpec* spec = nullptr;
      for (const QuerySpec& s : specs) {
        if (s.name == qs.name) spec = &s;
      }
      if (spec == nullptr) continue;
      JsonValue& rec = AddQueryRecord(&reporter, "query/" + qs.name, qs, *spec);
      rec.Set("sequential_seconds", spec->seq_seconds);
      rec.Set("readahead_throttles", qs.readahead_throttles);
    }

    JsonValue config = JsonValue::Object();
    config.Set("queries", num_queries);
    config.Set("mem_budget", mem_budget);
    config.Set("max_concurrent", sched_cfg.max_concurrent);
    config.Set("pool_threads", sched_cfg.pool_threads);
    config.Set("max_queue", sched_cfg.max_queue);
    config.Set("overload", overload);
    JsonValue& rec = reporter.AddMeasuredRecord(
        "service", std::move(config), stats.makespan_seconds,
        bench::kServiceTimed);
    fields::AppendJson(stats, &rec);
    bench::kRecoveryBlock.Set(&rec, recovery);
    rec.Set("broker_revokes", sched.broker().total_revokes());
    rec.Set("broker_regrows", sched.broker().total_regrows());
    rec.Set("total_io_bytes", total_io_bytes);
    rec.Set("verified", service_ok);
    perf::kTailLatencyBlock.Set(&rec, tail);

    if (!reporter.WriteAndReport(flags)) return 1;
  }
  return service_ok ? 0 : 1;
}
