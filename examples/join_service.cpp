// Join service: fire a burst of mixed-size GRACE disk joins at the
// JoinScheduler under a memory budget far smaller than their combined
// working sets, then keep submitting until admission control pushes
// back. The memory broker revokes running queries' grants to admit each
// newcomer, so the budget a query sees shrinks while it runs — the big
// query spills extra partitions (revoke-forced spills), later queries
// re-grow as earlier ones release, and every join still produces the
// exact match count. Submissions past the queue bound come back as
// kResourceExhausted, never a crash or silent queue growth.
//
//   ./join_service [--queries=N] [--budget_kib=N] [--max_concurrent=N]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "join/grace_disk.h"
#include "sched/join_scheduler.h"
#include "storage/buffer_manager.h"
#include "util/flags.h"
#include "workload/generator.h"

using namespace hashjoin;

namespace {

// Fast simulated disks so the example runs in well under a second.
BufferManagerConfig FastDisks() {
  BufferManagerConfig cfg;
  cfg.num_disks = 2;
  cfg.disk.bandwidth_mb_per_s = 20000;
  cfg.disk.request_latency_us = 0;
  return cfg;
}

JoinWorkload MakeWorkload(uint64_t build_tuples) {
  WorkloadSpec spec;
  spec.num_build_tuples = build_tuples;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  return GenerateJoinWorkload(spec);
}

// The query body: a full disk GRACE join sized off the live grant, so
// broker revokes show up as extra spilled partitions in the stats.
StatusOr<uint64_t> RunJoin(QueryContext& ctx, const JoinWorkload& w,
                           uint32_t num_partitions) {
  BufferManager bm(FastDisks());
  bm.SetReadAheadBudget(ctx.GrantFn());

  DiskJoinConfig cfg;
  cfg.num_partitions = num_partitions;
  cfg.dynamic_budget = ctx.GrantFn();
  cfg.initial_grant_bytes = ctx.grant().initial_bytes();
  DiskGraceJoin join(&bm, cfg);
  HJ_ASSIGN_OR_RETURN(auto build, join.StoreRelation(w.build));
  HJ_ASSIGN_OR_RETURN(auto probe, join.StoreRelation(w.probe));
  HJ_ASSIGN_OR_RETURN(DiskJoinResult r, join.Join(build, probe));
  ctx.stats().recovery = r.recovery;
  return r.output_tuples;
}

std::string Human(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lluK",
                (unsigned long long)(bytes / 1024));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv);
  uint32_t queries = uint32_t(flags.GetInt("queries", 6));
  uint32_t max_concurrent = uint32_t(flags.GetInt("max_concurrent", 3));

  // Mixed-size workloads: query 0 is several times larger than the rest
  // and wants the whole budget; the others' admission minima force the
  // broker to carve its grant down while it runs.
  std::vector<std::unique_ptr<JoinWorkload>> loads;
  std::vector<uint64_t> expected;
  for (uint32_t q = 0; q < queries; ++q) {
    uint64_t tuples = q == 0 ? 16000 : 3000 + 1500 * (q % 3);
    loads.push_back(std::make_unique<JoinWorkload>(MakeWorkload(tuples)));
    expected.push_back(loads.back()->expected_matches);
  }

  // A budget only slightly above the big query's per-partition footprint:
  // any concurrent admission squeezes it below that footprint, and the
  // join must spill to stay inside its grant.
  uint64_t part_tuples = 16000 / 4;
  uint64_t part_pages = (part_tuples * 26) / 8192 + 1;
  uint64_t part_need = part_pages * 8192 + part_tuples * 48;
  uint64_t budget =
      uint64_t(flags.GetInt("budget_kib", int64_t(part_need * 6 / 5 / 1024))) *
      1024;
  flags.RefuseUnread();

  SchedulerConfig cfg;
  cfg.max_concurrent = max_concurrent;
  cfg.max_queue = queries;  // the burst fits; the overload below does not
  cfg.pool_threads = 4;
  cfg.memory_budget = budget;
  JoinScheduler service(cfg);

  std::printf("join service: %u queries, budget %s, %u concurrent\n\n",
              queries, Human(budget).c_str(), cfg.max_concurrent);

  // Burst: submit everything at once. Query 0 asks for the full budget
  // (tiny minimum, so it yields under pressure); the rest demand a large
  // minimum, which is exactly what forces the broker to revoke.
  for (uint32_t q = 0; q < queries; ++q) {
    JoinRequest req;
    req.name = "q" + std::to_string(q);
    req.priority = q == 0 ? 10 : 0;  // the big query starts first
    req.min_grant_bytes = q == 0 ? budget / 16 : budget * 2 / 5;
    req.desired_grant_bytes = q == 0 ? budget : budget / 2;
    const JoinWorkload* w = loads[q].get();
    uint32_t parts = q == 0 ? 4 : 8;
    req.body = [w, parts](QueryContext& ctx) {
      return RunJoin(ctx, *w, parts);
    };
    auto id = service.Submit(std::move(req));
    if (!id.ok()) {
      std::printf("submit q%u rejected: %s\n", q,
                  id.status().ToString().c_str());
    }
  }

  // Overload: the queue is already full of the burst, so these bounce
  // with kResourceExhausted — the backpressure signal a caller sheds
  // load on, instead of a crash or an unbounded queue.
  uint32_t bounced = 0;
  for (uint32_t i = 0; i < 2 * queries; ++i) {
    JoinRequest req;
    req.name = "overload" + std::to_string(i);
    req.min_grant_bytes = 4096;
    req.desired_grant_bytes = 4096;
    const JoinWorkload* w = loads.back().get();
    req.body = [w](QueryContext& ctx) { return RunJoin(ctx, *w, 8); };
    auto id = service.Submit(std::move(req));
    if (!id.ok() && id.status().code() == StatusCode::kResourceExhausted) {
      ++bounced;
    }
  }

  ServiceStats stats = service.Drain();

  std::printf(
      "query       status        output  ok   grant  ->   low  revokes"
      "  rv_spills\n");
  bool all_ok = true;
  for (const QueryStats& q : stats.queries) {
    bool verified = true;
    for (uint32_t i = 0; i < queries; ++i) {
      if (q.name == "q" + std::to_string(i)) {
        verified = q.status.ok() && q.output_tuples == expected[i];
      }
    }
    all_ok = all_ok && verified;
    std::printf("%-10s  %-10s  %8llu  %-3s  %6s  %6s  %7llu  %9llu\n",
                q.name.c_str(),
                q.status.ok() ? "ok" : StatusCodeToString(q.status.code()),
                (unsigned long long)q.output_tuples, verified ? "yes" : "NO",
                Human(q.grant.initial_bytes).c_str(),
                Human(q.grant.low_bytes).c_str(),
                (unsigned long long)q.grant.revokes,
                (unsigned long long)q.recovery.revoke_spills);
  }

  uint64_t revoke_spills = 0;
  for (const QueryStats& q : stats.queries) {
    revoke_spills += q.recovery.revoke_spills;
  }
  std::printf(
      "\nservice: %llu admitted, %llu rejected (backpressure), "
      "%llu completed, %llu failed; makespan %.3fs\n",
      (unsigned long long)stats.submitted, (unsigned long long)stats.rejected,
      (unsigned long long)stats.completed, (unsigned long long)stats.failed,
      stats.makespan_seconds);
  std::printf(
      "memory:  %llu broker revokes, %llu re-grows, "
      "%llu revoke-forced spills\n",
      (unsigned long long)service.broker().total_revokes(),
      (unsigned long long)service.broker().total_regrows(),
      (unsigned long long)revoke_spills);
  std::printf("overload bounced with kResourceExhausted: %u\n", bounced);

  if (!all_ok) {
    std::printf("\nMISMATCH: some query produced the wrong count\n");
    return 1;
  }
  return 0;
}
