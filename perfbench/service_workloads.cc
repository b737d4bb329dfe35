// service_reuse and service_spill: closed-loop clients submitting queries
// to a JoinScheduler. A client submits its next query only after its
// previous one returned, so throughput measures the service, not an
// offered rate.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "cache/hash_table_cache.h"
#include "hash/hash_table.h"
#include "join/grace_disk.h"
#include "sched/join_scheduler.h"
#include "storage/buffer_manager.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

using hashjoin::JoinScheduler;
using hashjoin::QueryContext;
using hashjoin::StatusOr;

// A query still unanswered after this long means the service wedged; the
// run stops rather than hang past its time limit.
constexpr auto kWedgedQuery = std::chrono::seconds(60);

/// Confines the calling thread, and the threads it starts afterwards, to
/// the CPU it is running on. Where the host refuses, the workload runs
/// unconfined.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// One query as a client submits it.
struct Job {
  uint64_t grant_bytes = 0;  // admission minimum and desired size
  uint64_t expected = 0;     // match count a correct join returns
  uint64_t input_tuples = 0;
  std::function<StatusOr<uint64_t>(QueryContext&, OpTrace*, OpRecord*)> run;
};

/// Clients, admission and failure accounting shared by both service
/// workloads; subclasses build the service and say what each query runs.
class ServiceWorkload : public Workload {
 public:
  /// `pause` is how long a client waits after a result before it
  /// submits its next query.
  explicit ServiceWorkload(uint32_t clients, Clock::duration pause = {})
      : clients_(clients), pause_(pause) {}

  // Set-ups take well under a second, and the many thread hand-offs per
  // query make these workloads the most exposed to host interference.
  int Blocks() const override { return 8; }

  void RunBlock(Clock::time_point deadline, uint64_t max_ops, bool traced,
                std::vector<OpRecord>* ops) override {
    const uint64_t limit = max_ops == 0 ? UINT64_MAX : next_op_ + max_ops;
    hashjoin::cache::CacheStats before;
    hashjoin::cache::HashTableCache* cache = sched_->table_cache();
    if (cache != nullptr) before = cache->stats();
    std::mutex ops_mu;
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < clients_; ++c) {
      clients.emplace_back([&] {
        while (Clock::now() < deadline) {
          uint64_t op = 0;
          Job job;
          {
            // Claiming an operation also applies its catalog update, so
            // updates are serialized across clients.
            std::lock_guard<std::mutex> lock(claim_mu_);
            if (next_op_ >= limit) return;
            op = next_op_++;
            job = NextJob(op);
          }
          OpRecord rec = RunQuery(op, job, traced);
          {
            std::lock_guard<std::mutex> lock(ops_mu);
            ops->push_back(rec);
          }
          if (pause_ > Clock::duration::zero()) {
            std::this_thread::sleep_for(pause_);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    // Clients wake when the body returns; wait for the runners to
    // release grants too, so blocks do not overlap.
    sched_->WaitAll();
    if (traced && cache != nullptr) {
      const hashjoin::cache::CacheStats after = cache->stats();
      traced_cache_.lookups += after.lookups - before.lookups;
      traced_cache_.hits += after.hits - before.hits;
      traced_cache_.evictions += after.evictions - before.evictions;
      traced_cache_.invalidations +=
          after.invalidations - before.invalidations;
      traced_cache_.rejected_inserts +=
          after.rejected_inserts - before.rejected_inserts;
    }
  }

  hashjoin::cache::CacheStats TracedCacheStats() const override {
    return traced_cache_;
  }

  std::string InvariantViolation() const override {
    std::string problems = retired_problems_;
    problems += ServiceProblems();
    return problems;
  }

 protected:
  virtual Job NextJob(uint64_t op) = 0;

  /// Retires the running service, if any (its problems are kept), and
  /// hands freed pages back to the OS, so every set-up pays the
  /// first-touch cost a fresh process pays.
  void StopService() {
    if (sched_ != nullptr) {
      retired_problems_ += ServiceProblems();
      sched_.reset();
    }
    malloc_trim(0);
  }

  void StartService(const hashjoin::SchedulerConfig& config) {
    sched_ = std::make_unique<JoinScheduler>(config);
  }

  /// Warm-up queries: ops 0 .. queries-1 after every set-up, one at a
  /// time from the calling thread, so set-up never waits for admission
  /// or a grant and does the same work every time. The timed ops
  /// continue one sequence across blocks after them, so a run covers
  /// every block's share of the sequence, not one prefix again and
  /// again. A wrong answer among the warm-up queries fails the run too.
  void WarmUp(uint64_t queries) {
    for (uint64_t op = 0; op < queries; ++op) {
      Job job;
      {
        std::lock_guard<std::mutex> lock(claim_mu_);
        job = NextJob(op);
      }
      if (!RunQuery(op, job, /*traced=*/false).ok) {
        retired_problems_ += "a warm-up query failed; ";
      }
    }
    sched_->WaitAll();
    next_op_ = std::max(next_op_, queries);
  }

  const uint32_t clients_;
  const Clock::duration pause_;
  std::unique_ptr<JoinScheduler> sched_;

 private:
  OpRecord RunQuery(uint64_t op, const Job& job, bool traced) {
    OpRecord rec;
    rec.input_tuples = job.input_tuples;
    std::optional<OpTrace> trace;
    if (traced) trace.emplace(op, &rec);
    OpTrace* t = traced ? &*trace : nullptr;
    // The promise lives in the body: a query the scheduler drops without
    // running it breaks the promise, which the client counts as failed.
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> result = done->get_future();

    const Clock::time_point submitted = Clock::now();
    hashjoin::JoinRequest req;
    req.name = "q";
    req.name += std::to_string(op);
    req.min_grant_bytes = job.grant_bytes;
    req.desired_grant_bytes = job.grant_bytes;
    req.body = [done, t, &rec, &job,
                submitted](QueryContext& ctx) -> StatusOr<uint64_t> {
      const Clock::time_point entered = Clock::now();
      if (t != nullptr) {
        const Clock::time_point picked =
            submitted + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                ctx.stats().queue_seconds));
        t->AddInterval(Layer::kQueueWait, submitted, picked);
        t->AddInterval(Layer::kGrantWait, picked, entered);
      }
      StatusOr<uint64_t> out = job.run(ctx, t, &rec);
      rec.ok = out.ok() && out.value() == job.expected;
      // The client has the result once its future is ready; when the
      // client thread gets scheduled to look is not the service's time.
      rec.latency_ms = Ms(submitted, Clock::now());
      done->set_value();
      return out;
    };
    StatusOr<uint64_t> id = sched_->Submit(std::move(req));
    if (id.ok()) {
      if (result.wait_for(kWedgedQuery) != std::future_status::ready) {
        std::fprintf(stderr, "query %llu unanswered after %llds\n",
                     (unsigned long long)op,
                     (long long)kWedgedQuery.count());
        std::_Exit(3);
      }
      try {
        result.get();
        return rec;
      } catch (const std::future_error&) {
        // Dropped before its body ran.
      }
    }
    rec.ok = false;
    rec.latency_ms = Ms(submitted, Clock::now());
    return rec;
  }

  std::string ServiceProblems() const {
    std::string problems;
    const hashjoin::ServiceStats stats = sched_->Drain();
    if (stats.failed + stats.deadline_expired + stats.rejected != 0) {
      problems += "the scheduler reported failed, expired or rejected "
                  "queries; ";
    }
    if (sched_->broker().normal_revokes_with_cache_surplus() != 0) {
      problems += "a query grant was revoked while the cache held "
                  "surplus; ";
    }
    return problems;
  }

  std::mutex claim_mu_;
  uint64_t next_op_ = 0;
  hashjoin::cache::CacheStats traced_cache_;
  std::string retired_problems_;
};

// --- service_reuse ---------------------------------------------------

/// reuse_bench's query body over a Zipf(1.0) replay: 16 tables of 40k
/// 64-byte build tuples, 4k probe tuples per query, 5% of queries
/// preceded by an update. One query runs while the other two clients'
/// queries queue; the cache holds half the catalog.
///
/// One runner keeps the service at one busy thread, and two queued
/// queries give each client two query times to take its result and
/// resubmit before the runner could go idle. With two runners a client
/// had at most one query's time, often a cheap cache hit's, and in noisy
/// stretches of a shared host the tail doubled while a single-threaded
/// join barely moved (README.md, Steadiness).
///
/// The workload generator runs only during set-up: it builds two versions
/// of every table through ReplayCatalog::Update, and an update in the
/// timed section bumps the table's version (switching to the other
/// pre-built version) and invalidates the cache. The timed section thus
/// measures the cache's invalidation and rebuild, not data generation.
class ReuseWorkload : public ServiceWorkload {
 public:
  ReuseWorkload(uint64_t seed, bool smoke) : ServiceWorkload(3) {
    spec_.num_tables = 16;
    spec_.build_tuples_per_table = smoke ? 4000 : 40000;
    spec_.probe_tuples_per_query = smoke ? 400 : 4000;
    spec_.tuple_size = 64;
    spec_.zipf_theta = 1.0;
    spec_.update_rate = 0.05;
    // Longer than any run consumes; clients wrap around otherwise.
    spec_.num_queries = 1u << 18;
    spec_.seed = seed;
    trace_ = hashjoin::GenerateReplayTrace(spec_);
    warmup_queries_ = smoke ? 16 : 32;
  }

  void SetUp() override {
    tables_.clear();
    StopService();
    hashjoin::ReplayCatalog catalog(spec_);
    tables_.resize(spec_.num_tables);
    for (uint32_t t = 0; t < spec_.num_tables; ++t) {
      Table& table = tables_[t];
      table.relation_id = catalog.relation_id(t);
      for (Version& v : table.versions) {
        v = {catalog.build(t), catalog.probe(t),
             catalog.expected_matches(t)};
        catalog.Update(t);
      }
    }
    // One query's working set, as reuse_bench sizes it: the build pages
    // and table twice over plus the probe pages. The broker covers the
    // cache and the running query, so nothing is ever revoked and the hit
    // rate does not depend on revoke timing.
    const Version& v0 = tables_[0].versions[0];
    const uint64_t entry_bytes =
        v0.build->data_bytes() +
        hashjoin::HashTable::EstimateBytes(spec_.build_tuples_per_table);
    working_set_ = 2 * entry_bytes + v0.probe->data_bytes();
    hashjoin::SchedulerConfig cfg;
    cfg.max_concurrent = 1;
    cfg.max_queue = clients_;
    cfg.pool_threads = 1;  // bodies run serially on their runner thread
    cfg.cache_bytes = spec_.num_tables / 2 * entry_bytes;
    cfg.memory_budget =
        cfg.cache_bytes + cfg.max_concurrent * working_set_ + (1ull << 20);
    StartService(cfg);
    WarmUp(warmup_queries_);
  }

 protected:
  Job NextJob(uint64_t op) override {
    const hashjoin::ReplayOp& r = trace_[op % trace_.size()];
    Table& table = tables_[r.table];
    if (r.is_update) {
      ++table.version;
      sched_->table_cache()->Invalidate(table.relation_id);
    }
    const Version& v = table.versions[table.version % 2];
    std::shared_ptr<const hashjoin::Relation> build = v.build;
    std::shared_ptr<const hashjoin::Relation> probe = v.probe;
    hashjoin::cache::CacheKey key;
    key.relation_id = table.relation_id;
    key.version = table.version;
    key.fingerprint = hashjoin::cache::SchemaFingerprint(build->schema());

    Job job;
    job.grant_bytes = working_set_;
    job.expected = v.expected;
    job.input_tuples = build->num_tuples() + probe->num_tuples();
    job.run = [build, probe, key](QueryContext& ctx, OpTrace* t,
                                  OpRecord* rec) -> StatusOr<uint64_t> {
      hashjoin::RealMemory mm;
      hashjoin::GraceConfig cfg;
      cfg.dynamic_budget = ctx.GrantFn();
      cfg.table_cache = ctx.table_cache();
      cfg.cache_key = key;
      const Clock::time_point start = Clock::now();
      hashjoin::JoinResult r =
          t != nullptr
              ? TracedGraceJoin(mm, *build, *probe, cfg, t)
              : hashjoin::GraceHashJoin(mm, *build, *probe, cfg, nullptr);
      rec->join_call_ms = Ms(start, Clock::now());
      rec->cache_hit = r.cache_hit ? 1 : 0;
      return r.output_tuples;
    };
    return job;
  }

 private:
  /// One pre-built version of a table: its inputs and the exact match
  /// count ReplayCatalog computed for them.
  struct Version {
    std::shared_ptr<const hashjoin::Relation> build;
    std::shared_ptr<const hashjoin::Relation> probe;
    uint64_t expected = 0;
  };
  struct Table {
    uint64_t relation_id = 0;
    uint64_t version = 0;  // bumped by every update; selects versions[v % 2]
    Version versions[2];
  };

  hashjoin::ReplaySpec spec_;
  std::vector<hashjoin::ReplayOp> trace_;
  std::vector<Table> tables_;
  uint64_t working_set_ = 0;
  uint64_t warmup_queries_ = 0;
};

// --- service_spill ---------------------------------------------------

constexpr auto kSpillPause = std::chrono::milliseconds(5);

/// concurrent_bench's RunQuery body (hybrid residency, adaptive fan-out)
/// on a one-disk BufferManager per query. The broker holds exactly one
/// fixed grant of a quarter of a 20k-tuple query's build working set, so
/// every query spills. Of the two clients' queries one runs and the other
/// has been admitted and waits in MemoryBroker::Acquire. The busy threads
/// are the running query's runner and its disk worker.
///
/// The process runs on one vCPU, so the runner and its disk worker take
/// turns on it. Unconfined on a shared 4-vCPU host, runs held ~7.5
/// queries/s for some stretches of minutes and ~5.5 for others, a step
/// larger than any bound, while the other workloads did not move. The
/// faster level needs the two threads on two vCPUs at once, which one
/// vCPU rules out; in a slow stretch, confined runs matched unconfined
/// ones (5.2-5.7 against 5.6-5.7 queries/s).
///
/// MemoryBroker::Acquire wakes its waiters in no order: a runner that
/// has just released the grant and picked up the next queued query can
/// take the grant back before the waiting runner wakes, and the waiting
/// query then waits out one more. Whether it does is a race of thread
/// wake-ups: with three clients, seeds split between a p50 of two and of
/// three query times, and with two clients that resubmitted at once,
/// about one query in five took the grant without waiting. So there are
/// two clients, and a client waits kSpillPause after its result before
/// it resubmits. The grant is then released into an empty queue, and the
/// waiting query takes it. The pause overlaps the other query's run, so
/// neither throughput nor latency includes it.
///
/// Build sizes vary from 12k to 28k tuples (20k on average) and queries
/// take them in a seeded order, so the wait in front of a query varies
/// with the size ahead of it and the tail has a spread to report.
class SpillWorkload : public ServiceWorkload {
 public:
  SpillWorkload(uint64_t seed, bool smoke)
      : ServiceWorkload(2, kSpillPause), seed_(seed), smoke_(smoke) {
    // No thread has started yet, so every thread the workload starts
    // inherits the mask.
    PinToCurrentCpu();
    // Op 0, the warm-up query, joins the mid-size input. Every later
    // run of kInputs ops joins each input once, in a seeded order, so a
    // run's mix of sizes does not depend on the seed; only their order
    // does.
    hashjoin::Rng rng(seed);
    order_.push_back(kInputs / 2);
    std::vector<uint32_t> cycle(kInputs);
    while (order_.size() < (1u << 16)) {
      for (uint32_t i = 0; i < kInputs; ++i) cycle[i] = i;
      rng.Shuffle(&cycle);
      order_.insert(order_.end(), cycle.begin(), cycle.end());
    }
  }

  void SetUp() override {
    inputs_.clear();
    StopService();
    const uint64_t step = smoke_ ? 400 : 2000;
    for (uint32_t i = 0; i < kInputs; ++i) {
      hashjoin::WorkloadSpec w;
      w.tuple_size = 100;
      w.num_build_tuples = 6 * step + i * step;  // 12k .. 28k
      w.matches_per_build = 2.0;
      w.seed = seed_ * kInputs + i;
      inputs_.push_back(std::make_shared<const hashjoin::JoinWorkload>(
          hashjoin::GenerateJoinWorkload(w)));
    }
    const hashjoin::Relation& mid = inputs_[kInputs / 2]->build;
    grant_bytes_ = (mid.num_pages() * mid.page_size() +
                    hashjoin::HashTable::EstimateBytes(mid.num_tuples())) /
                   4;
    hashjoin::SchedulerConfig cfg;
    cfg.max_concurrent = 2;
    cfg.max_queue = clients_;
    cfg.pool_threads = 1;  // the disk join never uses the shared pool
    cfg.memory_budget = grant_bytes_;
    StartService(cfg);
    WarmUp(1);
  }

 protected:
  Job NextJob(uint64_t op) override {
    std::shared_ptr<const hashjoin::JoinWorkload> w =
        inputs_[order_[op % order_.size()]];
    Job job;
    job.grant_bytes = grant_bytes_;
    job.expected = w->expected_matches;
    job.input_tuples = w->build.num_tuples() + w->probe.num_tuples();
    job.run = [w](QueryContext& ctx, OpTrace* t,
                  OpRecord* rec) -> StatusOr<uint64_t> {
      return RunSpillQuery(ctx, *w, t, rec);
    };
    return job;
  }

 private:
  static constexpr uint32_t kInputs = 9;

  static StatusOr<uint64_t> RunSpillQuery(QueryContext& ctx,
                                          const hashjoin::JoinWorkload& w,
                                          OpTrace* t, OpRecord* rec) {
    // An unthrottled disk, so the run measures the program's I/O path
    // rather than the simulator's sleep pacing.
    hashjoin::BufferManagerConfig disks;
    disks.num_disks = 1;
    disks.disk.bandwidth_mb_per_s = 20000;
    disks.disk.request_latency_us = 0;
    hashjoin::DiskJoinConfig cfg;
    cfg.dynamic_budget = ctx.GrantFn();
    cfg.initial_grant_bytes = ctx.grant().initial_bytes();
    cfg.adaptive_fanout = true;
    cfg.hybrid_residency = true;
    cfg.install_revoke_listener = ctx.RevokeListenerInstaller();

    std::optional<hashjoin::BufferManager> bm;
    std::optional<hashjoin::DiskGraceJoin> join;
    {
      Span span(t, Layer::kStorageOpen);
      bm.emplace(disks);
      bm->SetReadAheadBudget(ctx.GrantFn());
      join.emplace(&*bm, cfg);
    }
    using FileId = hashjoin::BufferManager::FileId;
    StatusOr<std::pair<FileId, FileId>> files =
        [&]() -> StatusOr<std::pair<FileId, FileId>> {
      Span span(t, Layer::kStore);
      HJ_ASSIGN_OR_RETURN(FileId b, join->StoreRelation(w.build));
      HJ_ASSIGN_OR_RETURN(FileId p, join->StoreRelation(w.probe));
      return std::make_pair(b, p);
    }();
    if (!files.ok()) return files.status();
    StatusOr<hashjoin::DiskJoinResult> joined = [&] {
      Span span(t, Layer::kDiskJoin);
      return join->Join(files.value().first, files.value().second);
    }();
    if (!joined.ok()) return joined.status();
    const hashjoin::DiskJoinResult& r = joined.value();
    if (t != nullptr) {
      const hashjoin::IoRecoveryStats io = bm->recovery_stats();
      DiskCounters& d = rec->disk;
      d.partition_ms = 1e3 * (r.partition_phase.elapsed_seconds +
                              r.probe_partition_phase.elapsed_seconds);
      d.join_ms = 1e3 * r.join_phase.elapsed_seconds;
      d.io_wait_ms = 1e3 * (r.partition_phase.main_wait_seconds +
                            r.probe_partition_phase.main_wait_seconds +
                            r.join_phase.main_wait_seconds);
      d.bytes_read = io.bytes_read;
      d.bytes_written = io.bytes_written;
      d.victim_spills = r.recovery.victim_spills;
      d.recursive_splits = r.recovery.recursive_splits;
      d.chunked_fallbacks = r.recovery.chunked_fallbacks;
    }
    {
      Span span(t, Layer::kTeardown);
      join.reset();
      bm.reset();
    }
    return r.output_tuples;
  }

  uint64_t seed_;
  bool smoke_;
  std::vector<uint32_t> order_;  // input of each operation
  std::vector<std::shared_ptr<const hashjoin::JoinWorkload>> inputs_;
  uint64_t grant_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceWorkload(const std::string& name,
                                              uint64_t seed, bool smoke) {
  if (name == "service_reuse") {
    return std::make_unique<ReuseWorkload>(seed, smoke);
  }
  if (name == "service_spill") {
    return std::make_unique<SpillWorkload>(seed, smoke);
  }
  return nullptr;
}

}  // namespace perfbench
