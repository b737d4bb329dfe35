// Cross-query hash-table reuse under a Zipf replay workload: a catalog
// of join tables whose popularity follows a Zipf distribution, a stream
// of probe queries admitted through the JoinScheduler, and (optionally)
// the service-level HashTableCache holding built tables in the broker's
// lowest-priority revocable grant class. With --reuse=on a query whose
// table is cached skips the partition and build phases entirely and
// probes the pinned table; with --reuse=off every query rebuilds. Both
// modes run at the same broker budget, so the comparison isolates the
// reuse benefit: on a Zipf(1.0) trace the hot tables are built once and
// probed many times.
//
// --update-rate injects version bumps (catalog update + cache
// invalidation) before a fraction of the queries, bounding staleness:
// a query always joins against the version it captured at admission,
// and the cache never serves a version the catalog has moved past.
//
// Reports service throughput, run-latency tails, cache hit rate, and
// bytes revoked from the cache; --json[=path] writes BENCH_reuse.json
// in the shared harness schema (a "reuse" aggregate record carries the
// gated metrics).
//
//   reuse_bench [--reuse=on|off] [--tables=16] [--queries=200]
//               [--theta=1.0] [--update-rate=0.0] [--scheme=group]
//               [--build-tuples=N] [--probe-tuples=N] [--cache-bytes=N]
//               [--mem-budget=N] [--max-concurrent=4] [--pool-threads=4]
//               [--smoke] [--json[=path]]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_blocks.h"
#include "cache/hash_table_cache.h"
#include "hash/hash_table.h"
#include "join/grace.h"
#include "mem/memory_model.h"
#include "perf/bench_reporter.h"
#include "sched/join_scheduler.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload/replay.h"

using namespace hashjoin;

namespace {

/// One replay query as submitted: the inputs and cache key captured at
/// admission time, so a catalog update racing the queue cannot change
/// what the query joins or what count it must produce.
struct ReplayJob {
  uint32_t table = 0;
  std::shared_ptr<const Relation> build;
  std::shared_ptr<const Relation> probe;
  uint64_t expected_matches = 0;
  cache::CacheKey key;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  const bool smoke = flags.Has("smoke");
  const std::string reuse_str = flags.GetString("reuse", "on");
  HJ_CHECK(reuse_str == "on" || reuse_str == "off")
      << "--reuse must be on or off";
  const bool reuse = reuse_str == "on";

  Scheme scheme = Scheme::kGroup;
  const std::string scheme_name = flags.GetString("scheme", "group");
  HJ_CHECK(ParseScheme(scheme_name, &scheme))
      << "unknown scheme " << scheme_name << " (valid: " << SchemeNameList()
      << ")";

  ReplaySpec spec;
  spec.num_tables = uint32_t(flags.GetInt("tables", smoke ? 8 : 16));
  spec.num_queries = uint32_t(flags.GetInt("queries", smoke ? 48 : 200));
  spec.build_tuples_per_table =
      uint64_t(flags.GetInt("build-tuples", smoke ? 5000 : 40000));
  spec.probe_tuples_per_query =
      uint64_t(flags.GetInt("probe-tuples", smoke ? 500 : 4000));
  spec.tuple_size = 64;
  spec.zipf_theta = flags.GetDouble("theta", 1.0);
  spec.update_rate = flags.GetDouble("update-rate", 0.0);
  spec.seed = uint64_t(flags.GetInt("seed", 42));

  const std::vector<ReplayOp> trace = GenerateReplayTrace(spec);
  ReplayCatalog catalog(spec);

  // Working set of one query: build pages + hash table + probe pages.
  // Sized so the in-memory grace join plans a single partition — the
  // plan shape the cache serves.
  const uint64_t build_bytes = catalog.build(0)->data_bytes();
  const uint64_t table_bytes =
      HashTable::EstimateBytes(spec.build_tuples_per_table);
  const uint64_t entry_bytes = build_bytes + table_bytes;
  const uint64_t working_set =
      2 * (build_bytes + table_bytes) + catalog.probe(0)->data_bytes();

  // Default cache: room for about half the catalog — hot Zipf tables
  // fit, the cold tail churns.
  const uint64_t cache_bytes = uint64_t(flags.GetInt(
      "cache-bytes", int64_t((spec.num_tables / 2 + 1) * entry_bytes)));

  SchedulerConfig sched_cfg;
  sched_cfg.max_concurrent = uint32_t(flags.GetInt("max-concurrent", 4));
  sched_cfg.pool_threads = uint32_t(flags.GetInt("pool-threads", 4));
  sched_cfg.max_queue = std::max(1u, spec.num_queries);
  // Equal-budget comparison: both modes get the same broker budget; the
  // cache's grant is carved out of it only when reuse is on.
  const uint64_t mem_budget = uint64_t(flags.GetInt(
      "mem-budget",
      int64_t(cache_bytes + sched_cfg.max_concurrent * working_set +
              (1ull << 20))));
  sched_cfg.memory_budget = mem_budget;
  sched_cfg.cache_bytes = reuse ? cache_bytes : 0;

  std::printf(
      "=== Zipf replay: %u tables x %llu build tuples, %u queries, "
      "theta=%.2f, update_rate=%.2f, reuse=%s ===\n"
      "budget %.1f MiB (cache %.1f MiB), scheme=%s, max_concurrent=%u\n\n",
      spec.num_tables, (unsigned long long)spec.build_tuples_per_table,
      spec.num_queries, spec.zipf_theta, spec.update_rate,
      reuse ? "on" : "off", double(mem_budget) / (1024.0 * 1024.0),
      double(reuse ? cache_bytes : 0) / (1024.0 * 1024.0),
      SchemeName(scheme), sched_cfg.max_concurrent);

  JoinScheduler sched(sched_cfg);
  cache::HashTableCache* table_cache = sched.table_cache();
  HJ_CHECK(reuse == (table_cache != nullptr));

  // Submit the trace. Updates apply on this thread before their query
  // is admitted; in-flight queries keep the inputs they captured via
  // shared_ptr, so an update never invalidates memory under a reader.
  std::vector<ReplayJob> jobs(trace.size());
  std::vector<uint8_t> cache_hits(trace.size(), 0);
  uint64_t invalidated_entries = 0;
  WallTimer replay_timer;
  for (size_t i = 0; i < trace.size(); ++i) {
    const ReplayOp& op = trace[i];
    if (op.is_update) {
      catalog.Update(op.table);
      if (table_cache != nullptr) {
        invalidated_entries +=
            table_cache->Invalidate(catalog.relation_id(op.table));
      }
    }
    ReplayJob& job = jobs[i];
    job.table = op.table;
    job.build = catalog.build(op.table);
    job.probe = catalog.probe(op.table);
    job.expected_matches = catalog.expected_matches(op.table);
    job.key.relation_id = catalog.relation_id(op.table);
    job.key.version = catalog.version(op.table);
    job.key.fingerprint = cache::SchemaFingerprint(job.build->schema());

    JoinRequest req;
    req.name = "r" + std::to_string(i);
    req.min_grant_bytes = working_set;
    req.desired_grant_bytes = working_set;
    uint8_t* hit_flag = &cache_hits[i];
    const ReplayJob* j = &job;
    req.body = [j, scheme, hit_flag](QueryContext& ctx)
        -> StatusOr<uint64_t> {
      RealMemory mm;
      GraceConfig cfg;
      cfg.join_scheme = scheme;
      cfg.dynamic_budget = ctx.GrantFn();
      cfg.table_cache = ctx.table_cache();
      cfg.cache_key = j->key;
      JoinResult r = GraceHashJoin(mm, *j->build, *j->probe, cfg, nullptr);
      *hit_flag = r.cache_hit ? 1 : 0;
      return r.output_tuples;
    };
    auto id = sched.Submit(std::move(req));
    HJ_CHECK(id.ok()) << "replay query rejected: " << id.status().ToString();
  }
  ServiceStats stats = sched.Drain();
  const double replay_seconds = replay_timer.ElapsedSeconds();

  // --- verification + per-table tallies ---
  uint64_t bad_counts = 0;
  std::vector<double> run_seconds, queue_seconds;
  std::vector<uint64_t> table_queries(spec.num_tables, 0);
  std::vector<uint64_t> table_hits(spec.num_tables, 0);
  for (const QueryStats& qs : stats.queries) {
    HJ_CHECK(qs.name.size() > 1 && qs.name[0] == 'r');
    const size_t idx = size_t(std::stoull(qs.name.substr(1)));
    HJ_CHECK(idx < jobs.size());
    const ReplayJob& job = jobs[idx];
    const bool correct =
        qs.status.ok() && qs.output_tuples == job.expected_matches;
    if (!correct) ++bad_counts;
    ++table_queries[job.table];
    if (cache_hits[idx] != 0) ++table_hits[job.table];
    run_seconds.push_back(qs.run_seconds);
    queue_seconds.push_back(qs.queue_seconds);
  }
  const bool service_ok = bad_counts == 0 && stats.failed == 0 &&
                          stats.completed == spec.num_queries;
  const double throughput =
      replay_seconds > 0 ? double(stats.completed) / replay_seconds : 0;
  const perf::TailLatency tail =
      perf::TailLatency::Of(run_seconds, queue_seconds);

  // Zeros with --reuse=off, so the JSON schema (and the smoke fixture's
  // --require list) is identical in both modes.
  cache::CacheStats cs;
  if (table_cache != nullptr) cs = table_cache->stats();
  const CacheLedger ledger = sched.broker().cache_ledger();

  std::printf("%-6s %8s %6s %8s\n", "table", "queries", "hits", "hit%");
  for (uint32_t t = 0; t < spec.num_tables; ++t) {
    if (table_queries[t] == 0) continue;
    std::printf("%-6u %8llu %6llu %7.1f%%\n", t,
                (unsigned long long)table_queries[t],
                (unsigned long long)table_hits[t],
                100.0 * double(table_hits[t]) / double(table_queries[t]));
  }
  std::printf(
      "\nservice: %llu completed, %llu failed; %.4fs wall; "
      "%.1f queries/s; run p50=%.4fs p99=%.4fs\n",
      (unsigned long long)stats.completed, (unsigned long long)stats.failed,
      replay_seconds, throughput, tail.run_p50, tail.run_p99);
  std::printf(
      "cache: %.1f%% hit rate (%llu/%llu), %llu inserts, %llu evictions, "
      "%llu invalidated, %.1f KiB revoked (broker: %.1f KiB); updates=%llu\n",
      100.0 * cs.HitRate(), (unsigned long long)cs.hits,
      (unsigned long long)cs.lookups, (unsigned long long)cs.inserts,
      (unsigned long long)cs.evictions,
      (unsigned long long)cs.invalidations,
      double(cs.revoked_bytes) / 1024.0,
      double(ledger.broker_revoked_bytes) / 1024.0,
      (unsigned long long)catalog.total_updates());
  if (ledger.normal_revokes_with_cache_surplus != 0) {
    std::printf("FAILURE: %llu normal-grant revokes happened while the "
                "cache still held revocable surplus\n",
                (unsigned long long)ledger.normal_revokes_with_cache_surplus);
  }
  if (!service_ok) {
    std::printf("FAILURE: %llu queries wrong or failed\n",
                (unsigned long long)(bad_counts + stats.failed));
  }

  const bool ok = service_ok && ledger.normal_revokes_with_cache_surplus == 0;

  if (flags.Has("json")) {
    perf::BenchReporter::Options opt;
    opt.bench_name = "reuse";
    std::string path = flags.GetString("json", "");
    if (!path.empty() && path != "true") opt.output_path = path;
    opt.trials = 1;
    opt.warmup = 0;
    opt.collect_counters = false;
    perf::BenchReporter reporter(std::move(opt));

    for (uint32_t t = 0; t < spec.num_tables; ++t) {
      if (table_queries[t] == 0) continue;
      JsonValue config = JsonValue::Object();
      config.Set("reuse", reuse ? "on" : "off");
      config.Set("table", t);
      config.Set("build_tuples", spec.build_tuples_per_table);
      JsonValue& rec = reporter.AddMeasuredRecord(
          "table/" + std::to_string(t), std::move(config), 0,
          bench::kServiceTimed);
      rec.Set("queries", table_queries[t]);
      rec.Set("hits", table_hits[t]);
    }

    JsonValue config = JsonValue::Object();
    config.Set("reuse", reuse ? "on" : "off");
    config.Set("tables", spec.num_tables);
    config.Set("queries", spec.num_queries);
    config.Set("build_tuples", spec.build_tuples_per_table);
    config.Set("probe_tuples", spec.probe_tuples_per_query);
    config.Set("zipf_theta", spec.zipf_theta);
    config.Set("update_rate", spec.update_rate);
    config.Set("scheme", SchemeName(scheme));
    config.Set("mem_budget", mem_budget);
    config.Set("cache_bytes", reuse ? cache_bytes : 0);
    config.Set("max_concurrent", sched_cfg.max_concurrent);
    JsonValue& rec = reporter.AddMeasuredRecord(
        "reuse", std::move(config), replay_seconds, bench::kServiceTimed);
    fields::AppendJson(stats, &rec);
    rec.Set("throughput_qps", throughput);
    rec.Set("updates", catalog.total_updates());
    rec.Set("invalidated_entries", invalidated_entries);
    bench::kCacheBlock.Set(&rec, cs, ledger);
    perf::kTailLatencyBlock.Set(&rec, tail);
    rec.Set("verified", ok);

    if (!reporter.WriteAndReport(flags)) return 1;
  }
  return ok ? 0 : 1;
}
