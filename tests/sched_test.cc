// Multi-query join service tests: revocable memory grants (broker
// revoke -> spill, release -> re-grow/un-spill), fair pool sharing
// between PoolExecutors, admission control with backpressure and
// deadlines, and N concurrent joins racing on seeded fault-injecting
// disks. Registered under the `sched` ctest label (ctest -L sched); the
// concurrency tests are the ones worth running under -DHASHJOIN_TSAN.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "hash/hash_table.h"
#include "join/grace_disk.h"
#include "sched/join_scheduler.h"
#include "sched/memory_broker.h"
#include "storage/buffer_manager.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace hashjoin {
namespace {

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * 1024;

// ---------- PoolExecutor fair sharing ----------

TEST(TaskGroupTest, GroupsRunAllTasksAndWaitIndependently) {
  ThreadPool pool(4);
  PoolExecutor e1(&pool);
  PoolExecutor e2(&pool);
  std::atomic<int> c1{0}, c2{0};
  for (int i = 0; i < 200; ++i) {
    e1.Submit([&](uint32_t) { c1.fetch_add(1); });
    e2.Submit([&](uint32_t) { c2.fetch_add(1); });
  }
  e1.Wait();
  EXPECT_EQ(c1.load(), 200);
  e2.Wait();
  EXPECT_EQ(c2.load(), 200);
}

TEST(ThreadPoolTest, SubmitNotifyCannotLoseWakeups) {
  // Guards the pool's one-lock design: a group's queue and the workers'
  // sleep predicate are read and written under the same mutex, so a
  // submit cannot land between a worker's check for work and its park.
  // Many rounds of a single fast task against a single worker keep it
  // crossing the check-then-park edge; a lost wakeup hangs Wait(), which
  // fails at the test's ctest TIMEOUT.
  PoolExecutor pool(1u);
  std::atomic<int> done{0};
  constexpr int kRounds = 3000;
  for (int i = 0; i < kRounds; ++i) {
    pool.Submit(
        [&](uint32_t) { done.fetch_add(1, std::memory_order_relaxed); });
    pool.Wait();
  }
  EXPECT_EQ(done.load(), kRounds);
}

TEST(PoolExecutorTest, SharedPoolServesManyExecutors) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  {
    std::vector<std::unique_ptr<PoolExecutor>> execs;
    for (int e = 0; e < 6; ++e) {
      execs.push_back(std::make_unique<PoolExecutor>(&pool));
    }
    for (auto& ex : execs) {
      for (int i = 0; i < 50; ++i) {
        ex->Submit([&](uint32_t) { total.fetch_add(1); });
      }
    }
    for (auto& ex : execs) ex->Wait();
    EXPECT_EQ(total.load(), 6 * 50);
  }  // dtors re-Wait; must not hang or double-count
  EXPECT_EQ(total.load(), 6 * 50);
}

TEST(PoolExecutorTest, OwnedPoolModeStillWorks) {
  PoolExecutor ex(3u);
  EXPECT_EQ(ex.num_workers(), 3u);
  std::atomic<int> n{0};
  for (int i = 0; i < 64; ++i) ex.Submit([&](uint32_t) { n.fetch_add(1); });
  ex.Wait();
  EXPECT_EQ(n.load(), 64);
}

// ---------- MemoryBroker ----------

TEST(MemoryBrokerTest, GrantsFromFreeBudgetUpToDesired) {
  MemoryBroker broker(100 * kKiB);
  auto a = broker.Acquire(10 * kKiB, 60 * kKiB);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value()->bytes(), 60 * kKiB);
  EXPECT_EQ(broker.free_bytes(), 40 * kKiB);
  auto b = broker.Acquire(10 * kKiB, 60 * kKiB);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value()->bytes(), 40 * kKiB);  // clipped, no revoke needed
  EXPECT_EQ(broker.free_bytes(), 0u);
  EXPECT_EQ(broker.total_revokes(), 0u);
  b.value()->Release();
  // A already holds its desired size, so the bytes return to the pool.
  EXPECT_EQ(broker.free_bytes(), 40 * kKiB);
  EXPECT_EQ(a.value()->bytes(), 60 * kKiB);
  EXPECT_EQ(a.value()->regrows(), 0u);
}

TEST(MemoryBrokerTest, AcquireRevokesSurplusLargestFirst) {
  MemoryBroker broker(100 * kKiB);
  auto a = broker.Acquire(20 * kKiB, 80 * kKiB);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.value()->bytes(), 80 * kKiB);
  // B needs 40 KiB minimum; 20 KiB free, so 20 KiB is revoked from A.
  auto b = broker.Acquire(40 * kKiB, 40 * kKiB);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value()->bytes(), 40 * kKiB);
  EXPECT_EQ(a.value()->bytes(), 60 * kKiB);
  EXPECT_EQ(a.value()->revokes(), 1u);
  EXPECT_EQ(a.value()->low_watermark(), 60 * kKiB);
  EXPECT_EQ(a.value()->initial_bytes(), 80 * kKiB);
  EXPECT_EQ(broker.total_revokes(), 1u);
  // B releases; A re-grows toward desired.
  b.value()->Release();
  EXPECT_EQ(a.value()->bytes(), 80 * kKiB);
  EXPECT_GE(a.value()->regrows(), 1u);
  EXPECT_EQ(broker.free_bytes(), 20 * kKiB);
}

TEST(MemoryBrokerTest, RevokeNeverCutsBelowMinimum) {
  MemoryBroker broker(100 * kKiB);
  auto a = broker.Acquire(50 * kKiB, 100 * kKiB);
  ASSERT_TRUE(a.ok());
  // Only 50 KiB of surplus exists; a 60 KiB minimum cannot be met.
  auto b = broker.Acquire(60 * kKiB, 60 * kKiB, /*timeout_seconds=*/0);
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(a.value()->bytes(), 100 * kKiB);  // untouched by the failure
  // A 50 KiB minimum is exactly coverable.
  auto c = broker.Acquire(50 * kKiB, 50 * kKiB, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a.value()->bytes(), 50 * kKiB);
}

TEST(MemoryBrokerTest, InvalidAndImpossibleRequests) {
  MemoryBroker broker(10 * kKiB);
  EXPECT_EQ(broker.Acquire(0, 1 * kKiB).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.Acquire(2 * kKiB, 1 * kKiB).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(broker.Acquire(11 * kKiB, 12 * kKiB).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(MemoryBrokerTest, TimedAcquireReportsDeadlineExceeded) {
  MemoryBroker broker(10 * kKiB);
  auto a = broker.Acquire(10 * kKiB, 10 * kKiB);
  ASSERT_TRUE(a.ok());
  auto b = broker.Acquire(5 * kKiB, 5 * kKiB, /*timeout_seconds=*/0.05);
  EXPECT_EQ(b.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(MemoryBrokerTest, BlockingAcquireWakesOnRelease) {
  MemoryBroker broker(10 * kKiB);
  auto a = broker.Acquire(10 * kKiB, 10 * kKiB);
  ASSERT_TRUE(a.ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto b = broker.Acquire(8 * kKiB, 8 * kKiB, /*timeout_seconds=*/30);
    ASSERT_TRUE(b.ok());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  a.value()->Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(MemoryBrokerTest, RevokeListenerFiresWithNewSize) {
  MemoryBroker broker(100 * kKiB);
  auto a = broker.Acquire(20 * kKiB, 100 * kKiB);
  ASSERT_TRUE(a.ok());
  std::atomic<uint64_t> seen{0};
  a.value()->SetRevokeListener([&](uint64_t b) { seen.store(b); });
  auto b = broker.Acquire(30 * kKiB, 30 * kKiB);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(seen.load(), 70 * kKiB);
}

TEST(MemoryBrokerTest, LateListenerInstallCatchesUpOnPastRevokes) {
  MemoryBroker broker(100 * kKiB);
  auto a = broker.Acquire(20 * kKiB, 100 * kKiB);
  ASSERT_TRUE(a.ok());

  // Before any revoke, installing must NOT fire — nothing was missed,
  // and a spurious call would look like a revoke that never happened.
  std::atomic<uint64_t> calls{0}, seen{0};
  auto listener = [&](uint64_t b) {
    calls.fetch_add(1);
    seen.store(b);
  };
  a.value()->SetRevokeListener(listener);
  EXPECT_EQ(calls.load(), 0u);

  // Revoke with no listener installed: the notification is gone.
  a.value()->SetRevokeListener({});
  auto b = broker.Acquire(30 * kKiB, 30 * kKiB);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(calls.load(), 0u);

  // Late install after the revoke: the catch-up fires exactly once,
  // from this (installing) thread, with the live grant size.
  a.value()->SetRevokeListener(listener);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(seen.load(), 70 * kKiB);
  EXPECT_EQ(seen.load(), a.value()->bytes());
}

TEST(MemoryBrokerTest, RevokeListenerIsSafeUnderConcurrentRevokes) {
  // The locking contract: the callback runs on revoking threads (other
  // queries' admissions) with no broker locks held, so it must be
  // thread-safe and must not call back into the broker. A store-only
  // listener under four churning acquirers must observe a value history
  // consistent with the grant's own low watermark.
  MemoryBroker broker(128 * kKiB);
  auto a = broker.Acquire(16 * kKiB, 128 * kKiB);
  ASSERT_TRUE(a.ok());
  std::atomic<uint64_t> min_seen{UINT64_MAX};
  a.value()->SetRevokeListener([&](uint64_t b) {
    uint64_t cur = min_seen.load();
    while (b < cur && !min_seen.compare_exchange_weak(cur, b)) {
    }
  });

  std::atomic<int> failed{0};
  std::vector<std::thread> churn;
  for (int t = 0; t < 4; ++t) {
    churn.emplace_back([&broker, &failed] {
      for (int i = 0; i < 25; ++i) {
        auto g = broker.Acquire(8 * kKiB, 16 * kKiB, /*timeout_seconds=*/5.0);
        if (!g.ok()) {
          failed.fetch_add(1);
          continue;
        }
        g.value()->Release();
      }
    });
  }
  for (auto& t : churn) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(a.value()->revokes(), 0u);
  // Values may arrive out of order, but the smallest notified size is
  // exactly the smallest the grant ever held.
  EXPECT_EQ(min_seen.load(), a.value()->low_watermark());
}

// ---------- Grant-aware disk join: revoke -> spill, regrow -> un-spill --

DiskConfig FastDisk() {
  DiskConfig cfg;
  cfg.bandwidth_mb_per_s = 20000;
  cfg.request_latency_us = 0;
  return cfg;
}

BufferManagerConfig FastDisks(uint32_t n) {
  BufferManagerConfig cfg;
  cfg.num_disks = n;
  cfg.disk = FastDisk();
  return cfg;
}

JoinWorkload SmallWorkload(uint64_t build_tuples) {
  WorkloadSpec spec;
  spec.num_build_tuples = build_tuples;
  spec.tuple_size = 20;
  spec.matches_per_build = 2.0;
  return GenerateJoinWorkload(spec);
}

TEST(DynamicBudgetTest, RevokeMidJoinForcesSpillAndIsCounted) {
  JoinWorkload w = SmallWorkload(8000);
  BufferManager bm(FastDisks(2));
  DiskJoinConfig cfg;
  cfg.num_partitions = 8;
  cfg.memory_budget = 4 * kMiB;  // static fallback, unused once wired
  // Admitted with a generous grant, then revoked — before the join's
  // first sizing decision — to a budget smaller than any partition's
  // build footprint.
  const std::atomic<uint64_t> live{16 * kKiB};
  cfg.dynamic_budget = BudgetView(&live);
  cfg.initial_grant_bytes = 4 * kMiB;
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(w.build);
  auto p = join.StoreRelation(w.probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  // Partitions that would have fit at the peak budget spilled because of
  // the shrink — the revoke-spill tally must say so.
  EXPECT_GT(r.value().recovery.revoke_spills, 0u);
  EXPECT_GT(r.value().recovery.recursive_splits +
                r.value().recovery.chunked_fallbacks,
            0u);
}

TEST(DynamicBudgetTest, RegrowLetsBuildsRunInMemoryAndIsCounted) {
  JoinWorkload w = SmallWorkload(8000);
  BufferManager bm(FastDisks(2));
  DiskJoinConfig cfg;
  cfg.num_partitions = 8;
  // Admitted starved, then re-grown before the join's first sizing
  // decision: builds run fully in memory although they exceed the
  // trough budget.
  const std::atomic<uint64_t> live{8 * kMiB};
  cfg.dynamic_budget = BudgetView(&live);
  cfg.initial_grant_bytes = 16 * kKiB;
  DiskGraceJoin join(&bm, cfg);
  auto b = join.StoreRelation(w.build);
  auto p = join.StoreRelation(w.probe);
  ASSERT_TRUE(b.ok() && p.ok());
  auto r = join.Join(b.value(), p.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().output_tuples, w.expected_matches);
  EXPECT_GT(r.value().recovery.regrant_unspills, 0u);
}

TEST(ReadAheadBudgetTest, ThrottlesScanWindowWithoutChangingResults) {
  JoinWorkload w = SmallWorkload(6000);
  uint64_t unthrottled;
  {
    BufferManager bm(FastDisks(2));
    DiskGraceJoin join(&bm, 4);
    auto b = join.StoreRelation(w.build);
    auto p = join.StoreRelation(w.probe);
    ASSERT_TRUE(b.ok() && p.ok());
    auto r = join.Join(b.value(), p.value());
    ASSERT_TRUE(r.ok());
    unthrottled = r.value().output_tuples;
    EXPECT_EQ(bm.readahead_throttles(), 0u);
  }
  {
    BufferManager bm(FastDisks(2));
    // Budget worth ~3 pages: the scan window must clamp (and count it)
    // while the join still produces identical results.
    const std::atomic<uint64_t> budget{3 * 8 * kKiB};
    bm.SetReadAheadBudget(BudgetView(&budget));
    DiskGraceJoin join(&bm, 4);
    auto b = join.StoreRelation(w.build);
    auto p = join.StoreRelation(w.probe);
    ASSERT_TRUE(b.ok() && p.ok());
    auto r = join.Join(b.value(), p.value());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().output_tuples, unthrottled);
    EXPECT_EQ(r.value().output_tuples, w.expected_matches);
    EXPECT_GT(bm.readahead_throttles(), 0u);
  }
}

// ---------- JoinScheduler ----------

/// A query body joining `w` on its own fault-injecting disk array,
/// sized off the live grant. Mirrors how the concurrent bench and the
/// join_service example drive the scheduler.
StatusOr<uint64_t> RunDiskJoinQuery(QueryContext& ctx, const JoinWorkload& w,
                                    uint64_t fault_seed) {
  BufferManagerConfig bm_cfg = FastDisks(2);
  if (fault_seed != 0) {
    bm_cfg.disk.fault.read_error_rate = 0.02;
    bm_cfg.disk.fault.write_error_rate = 0.02;
    bm_cfg.disk.fault.seed = fault_seed;
  }
  BufferManager bm(bm_cfg);
  bm.SetReadAheadBudget(ctx.GrantFn());
  IoRecoveryStats io_before = bm.recovery_stats();

  DiskJoinConfig cfg;
  cfg.num_partitions = 8;
  cfg.dynamic_budget = ctx.GrantFn();
  cfg.initial_grant_bytes = ctx.grant().initial_bytes();
  DiskGraceJoin join(&bm, cfg);
  HJ_ASSIGN_OR_RETURN(auto build, join.StoreRelation(w.build));
  HJ_ASSIGN_OR_RETURN(auto probe, join.StoreRelation(w.probe));
  HJ_ASSIGN_OR_RETURN(DiskJoinResult r, join.Join(build, probe));

  ctx.stats().recovery = r.recovery;
  IoRecoveryStats io_after = bm.recovery_stats();
  ctx.stats().io.read_retries = io_after.read_retries - io_before.read_retries;
  ctx.stats().io.write_retries =
      io_after.write_retries - io_before.write_retries;
  ctx.stats().io.injected_faults =
      io_after.injected_faults - io_before.injected_faults;
  ctx.stats().readahead_throttles = bm.readahead_throttles();
  return r.output_tuples;
}

TEST(JoinSchedulerTest, ConcurrentFaultyJoinsAllProduceCorrectCounts) {
  SchedulerConfig cfg;
  cfg.max_concurrent = 3;
  cfg.max_queue = 16;
  cfg.pool_threads = 3;
  cfg.memory_budget = 2 * kMiB;  // well below the combined working sets
  JoinScheduler sched(cfg);

  const int kQueries = 6;
  std::vector<JoinWorkload> loads;
  for (int q = 0; q < kQueries; ++q) {
    loads.push_back(SmallWorkload(3000 + 500 * uint64_t(q)));
  }
  for (int q = 0; q < kQueries; ++q) {
    JoinRequest req;
    req.name = "q" + std::to_string(q);
    req.min_grant_bytes = 64 * kKiB;
    req.desired_grant_bytes = 1 * kMiB;
    req.body = [&loads, q](QueryContext& ctx) {
      return RunDiskJoinQuery(ctx, loads[size_t(q)], 1000 + uint64_t(q));
    };
    auto id = sched.Submit(std::move(req));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  ServiceStats stats = sched.Drain();
  ASSERT_EQ(stats.queries.size(), size_t(kQueries));
  EXPECT_EQ(stats.completed, uint64_t(kQueries));
  EXPECT_EQ(stats.failed, 0u);
  uint64_t injected = 0;
  for (const QueryStats& qs : stats.queries) {
    ASSERT_TRUE(qs.status.ok()) << qs.name << ": " << qs.status.ToString();
    int q = qs.name[1] - '0';
    EXPECT_EQ(qs.output_tuples, loads[size_t(q)].expected_matches) << qs.name;
    EXPECT_GE(qs.grant.initial_bytes, 64 * kKiB);
    injected += qs.io.injected_faults;
  }
  EXPECT_GT(injected, 0u) << "fault injection never fired; test is vacuous";
}

/// The robust hybrid configuration the revoke-storm rides on: adaptive
/// fan-out, residency-managed partitions, and the grant's revoke
/// listener wired in as the eager eviction hint.
StatusOr<uint64_t> RunRobustHybridQuery(QueryContext& ctx,
                                        const JoinWorkload& w) {
  BufferManager bm(FastDisks(2));
  bm.SetReadAheadBudget(ctx.GrantFn());

  DiskJoinConfig cfg;
  cfg.dynamic_budget = ctx.GrantFn();
  cfg.initial_grant_bytes = ctx.grant().initial_bytes();
  cfg.adaptive_fanout = true;
  cfg.hybrid_residency = true;
  cfg.install_revoke_listener = ctx.RevokeListenerInstaller();
  DiskGraceJoin join(&bm, cfg);
  HJ_ASSIGN_OR_RETURN(auto build, join.StoreRelation(w.build));
  HJ_ASSIGN_OR_RETURN(auto probe, join.StoreRelation(w.probe));
  HJ_ASSIGN_OR_RETURN(DiskJoinResult r, join.Join(build, probe));
  ctx.stats().recovery = r.recovery;
  return r.output_tuples;
}

TEST(JoinSchedulerTest, RevokeStormAllJoinsConvergeWithBalancedLedgers) {
  // 2x oversubscription: every query desires its whole working set, the
  // broker budget covers half of what max_concurrent of them want, and
  // mixed priorities keep admissions churning grants both ways. Every
  // join must converge to the exact match count, and the spill/un-spill
  // ledgers must stay internally consistent.
  const uint64_t kTuples = 4000;
  const uint64_t pages = kTuples * 26 / (8 * kKiB) + 1;
  const uint64_t ws = pages * 8 * kKiB + HashTable::EstimateBytes(kTuples);

  SchedulerConfig cfg;
  cfg.max_concurrent = 4;
  cfg.pool_threads = 4;
  cfg.max_queue = 16;
  cfg.memory_budget = ws * 2;
  JoinScheduler sched(cfg);

  const int kQueries = 8;
  std::vector<JoinWorkload> loads;
  for (int q = 0; q < kQueries; ++q) loads.push_back(SmallWorkload(kTuples));
  for (int q = 0; q < kQueries; ++q) {
    JoinRequest req;
    req.name = "s" + std::to_string(q);
    req.priority = q % 3;
    req.min_grant_bytes = std::max<uint64_t>(ws / 8, 8 * kKiB);
    req.desired_grant_bytes = ws;
    req.body = [&loads, q](QueryContext& ctx) {
      return RunRobustHybridQuery(ctx, loads[size_t(q)]);
    };
    ASSERT_TRUE(sched.Submit(std::move(req)).ok());
  }
  ServiceStats stats = sched.Drain();
  ASSERT_EQ(stats.queries.size(), size_t(kQueries));
  EXPECT_EQ(stats.completed, uint64_t(kQueries));
  EXPECT_EQ(stats.failed, 0u);

  uint64_t spills = 0, unspills = 0;
  for (const QueryStats& qs : stats.queries) {
    ASSERT_TRUE(qs.status.ok()) << qs.name << ": " << qs.status.ToString();
    int q = qs.name[1] - '0';
    EXPECT_EQ(qs.output_tuples, loads[size_t(q)].expected_matches) << qs.name;
    // A spill classified as revoke-forced requires an actual revoke in
    // this grant's history — the classification cannot invent one.
    if (qs.recovery.revoke_spills > 0) {
      EXPECT_GT(qs.grant.revokes, 0u) << qs.name;
    }
    spills += qs.recovery.victim_spills;
    unspills += qs.recovery.victim_unspills;
  }
  // The storm forced evictions somewhere, and only evicted partitions
  // can be re-admitted.
  EXPECT_GT(spills, 0u);
  EXPECT_LE(unspills, spills);
  EXPECT_GT(sched.broker().total_revokes(), 0u);
}

TEST(JoinSchedulerTest, FullQueueRejectsWithResourceExhausted) {
  SchedulerConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 2;
  cfg.pool_threads = 1;
  JoinScheduler sched(cfg);

  std::atomic<bool> release{false};
  JoinRequest blocker;
  blocker.name = "blocker";
  blocker.body = [&](QueryContext&) -> StatusOr<uint64_t> {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return uint64_t(0);
  };
  ASSERT_TRUE(sched.Submit(std::move(blocker)).ok());
  // Give the runner a moment to pick the blocker up, freeing the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  int accepted = 0, rejected = 0;
  for (int i = 0; i < 5; ++i) {
    JoinRequest req;
    req.name = "flood" + std::to_string(i);
    req.body = [](QueryContext&) -> StatusOr<uint64_t> {
      return uint64_t(1);
    };
    auto id = sched.Submit(std::move(req));
    if (id.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 2);  // max_queue
  EXPECT_EQ(rejected, 3);
  release.store(true);
  ServiceStats stats = sched.Drain();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.completed, uint64_t(1 + accepted));
}

TEST(JoinSchedulerTest, HigherPriorityRunsFirst) {
  SchedulerConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 8;
  cfg.pool_threads = 1;
  JoinScheduler sched(cfg);

  std::atomic<bool> release{false};
  JoinRequest blocker;
  blocker.name = "blocker";
  blocker.body = [&](QueryContext&) -> StatusOr<uint64_t> {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return uint64_t(0);
  };
  ASSERT_TRUE(sched.Submit(std::move(blocker)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::mutex order_mu;
  std::vector<std::string> order;
  auto make = [&](const std::string& name, int priority) {
    JoinRequest req;
    req.name = name;
    req.priority = priority;
    req.body = [&order_mu, &order, name](QueryContext&)
        -> StatusOr<uint64_t> {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
      return uint64_t(0);
    };
    ASSERT_TRUE(sched.Submit(std::move(req)).ok());
  };
  make("low-a", 0);
  make("high", 5);
  make("low-b", 0);
  release.store(true);
  sched.WaitAll();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "low-a");  // FIFO within a priority level
  EXPECT_EQ(order[2], "low-b");
}

TEST(JoinSchedulerTest, DeadlineExpiresInQueueWithCleanStatus) {
  SchedulerConfig cfg;
  cfg.max_concurrent = 1;
  cfg.max_queue = 4;
  cfg.pool_threads = 1;
  JoinScheduler sched(cfg);

  JoinRequest slow;
  slow.name = "slow";
  slow.body = [](QueryContext&) -> StatusOr<uint64_t> {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return uint64_t(0);
  };
  ASSERT_TRUE(sched.Submit(std::move(slow)).ok());

  JoinRequest doomed;
  doomed.name = "doomed";
  doomed.deadline_seconds = 0.01;  // expires while `slow` runs
  doomed.body = [](QueryContext&) -> StatusOr<uint64_t> {
    ADD_FAILURE() << "expired query must not run";
    return uint64_t(0);
  };
  ASSERT_TRUE(sched.Submit(std::move(doomed)).ok());

  ServiceStats stats = sched.Drain();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  bool found = false;
  for (const QueryStats& qs : stats.queries) {
    if (qs.name != "doomed") continue;
    found = true;
    EXPECT_EQ(qs.status.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(found);
}

TEST(JoinSchedulerTest, BodyErrorsSurfaceAsFailedQueryStats) {
  SchedulerConfig cfg;
  cfg.max_concurrent = 2;
  cfg.max_queue = 4;
  cfg.pool_threads = 1;
  JoinScheduler sched(cfg);
  JoinRequest req;
  req.name = "bad";
  req.body = [](QueryContext&) -> StatusOr<uint64_t> {
    return Status::DataLoss("simulated corruption");
  };
  ASSERT_TRUE(sched.Submit(std::move(req)).ok());
  ServiceStats stats = sched.Drain();
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(stats.queries.size(), 1u);
  EXPECT_EQ(stats.queries[0].status.code(), StatusCode::kDataLoss);
}

TEST(JoinSchedulerTest, SecondQueryRevokesFirstAndStatsRecordIt) {
  SchedulerConfig cfg;
  cfg.max_concurrent = 2;
  cfg.max_queue = 4;
  cfg.pool_threads = 2;
  cfg.memory_budget = 1 * kMiB;
  JoinScheduler sched(cfg);

  // A grabs the whole budget, then waits (bounded) for a revoke. The
  // wait polls the monotonic revoke counter, not bytes(): the claimant
  // releases its grant right away, so the dip in bytes() is transient
  // (the broker re-grows the hog immediately) and a poll could miss it.
  JoinRequest a;
  a.name = "hog";
  a.min_grant_bytes = 256 * kKiB;
  a.desired_grant_bytes = 1 * kMiB;
  a.body = [](QueryContext& ctx) -> StatusOr<uint64_t> {
    for (int i = 0; i < 5000; ++i) {
      if (ctx.grant().revokes() > 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return ctx.grant_bytes();
  };
  ASSERT_TRUE(sched.Submit(std::move(a)).ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  JoinRequest b;
  b.name = "claimant";
  b.min_grant_bytes = 512 * kKiB;  // forces a revoke of hog's surplus
  b.desired_grant_bytes = 512 * kKiB;
  b.body = [](QueryContext& ctx) -> StatusOr<uint64_t> {
    return ctx.grant_bytes();
  };
  ASSERT_TRUE(sched.Submit(std::move(b)).ok());

  ServiceStats stats = sched.Drain();
  EXPECT_EQ(stats.completed, 2u);
  for (const QueryStats& qs : stats.queries) {
    if (qs.name == "hog") {
      EXPECT_GE(qs.grant.revokes, 1u);
      EXPECT_LT(qs.grant.low_bytes, qs.grant.initial_bytes);
    }
    if (qs.name == "claimant") {
      EXPECT_GE(qs.grant.initial_bytes, 512 * kKiB);
    }
  }
  EXPECT_GE(sched.broker().total_revokes(), 1u);
}

}  // namespace
}  // namespace hashjoin
