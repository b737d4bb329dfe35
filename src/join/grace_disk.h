#ifndef HASHJOIN_JOIN_GRACE_DISK_H_
#define HASHJOIN_JOIN_GRACE_DISK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "hash/hash_table.h"
#include "join/residency.h"
#include "storage/buffer_manager.h"
#include "storage/relation.h"
#include "util/budget_view.h"
#include "util/fields.h"
#include "util/status.h"

namespace hashjoin {

/// Wall-clock measurements of one disk-backed phase (the Figure 9
/// quantities): total elapsed time, the largest per-disk transfer time
/// ("worker I/O"), and the time the main thread blocked on I/O.
struct DiskPhaseStats {
  double elapsed_seconds = 0;
  double max_disk_seconds = 0;
  double main_wait_seconds = 0;

  /// Share of the elapsed time the main thread spent blocked on I/O.
  double MainWaitFraction() const {
    return elapsed_seconds > 0 ? main_wait_seconds / elapsed_seconds : 0.0;
  }

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("elapsed_seconds", &DiskPhaseStats::elapsed_seconds);
    v("max_disk_seconds", &DiskPhaseStats::max_disk_seconds);
    v("main_wait_seconds", &DiskPhaseStats::main_wait_seconds);
    v("main_wait_fraction", &DiskPhaseStats::MainWaitFraction);
  }
};

/// What one recursion level of partitioning actually wrote: the realized
/// spill cost (tuples and bytes written to this level's partition files,
/// wall seconds spent routing) plus the key-hash histogram of the written
/// tuples. Level 0 is the join's first partition pass; level L >= 1 is
/// the L-th recursive repartition, so a non-empty level 1 means skew or
/// memory pressure forced re-splitting. The classic mode writes every
/// routed tuple; the residency mode writes only the partitions it
/// spills. Persisted into QueryStats so a scheduler can negotiate grants
/// for repeat queries from realized costs, and so the cache's eviction
/// policy can price a rebuild with measured (not just modeled) numbers.
struct SpillLevelStats {
  static constexpr uint32_t kHistBins = 64;
  uint32_t level = 0;
  /// Output partition files opened at this level (sum over split passes).
  uint64_t partitions_written = 0;
  /// Tuples / payload bytes written to this level's files — the realized
  /// spill cost in data volume.
  uint64_t tuples = 0;
  uint64_t bytes_written = 0;
  /// Wall seconds spent inside this level's routing passes.
  double partition_seconds = 0;
  /// Key-hash histogram (original memoized hash % kHistBins) of every
  /// tuple written at this level.
  std::array<uint64_t, kHistBins> hist{};

  /// Largest bin's share of all written tuples (1.0 / kHistBins for a
  /// perfectly uniform input; near 1.0 for a single hot key).
  double MaxBinFraction() const {
    uint64_t max_bin = 0;
    for (uint64_t b : hist) max_bin = b > max_bin ? b : max_bin;
    return tuples == 0 ? 0.0 : double(max_bin) / double(tuples);
  }

  /// Bins that received at least one tuple.
  uint32_t NonzeroBins() const {
    uint32_t n = 0;
    for (uint64_t b : hist) n += b != 0 ? 1 : 0;
    return n;
  }

  /// The raw bins stay internal; JSON carries their two summaries.
  template <class V>
  static constexpr void VisitFields(V& v) {
    v("level", &SpillLevelStats::level, fields::Kind::kLevel);
    v("partitions_written", &SpillLevelStats::partitions_written);
    v("tuples", &SpillLevelStats::tuples);
    v("bytes_written", &SpillLevelStats::bytes_written);
    v("partition_seconds", &SpillLevelStats::partition_seconds);
    v("hist", &SpillLevelStats::hist, fields::kInternal);
    v("max_bin_fraction", &SpillLevelStats::MaxBinFraction);
    v("nonzero_bins", &SpillLevelStats::NonzeroBins);
  }
};

/// Configuration of the disk-backed GRACE join's resilience layer.
struct DiskJoinConfig {
  /// Initial partition fan-out of the I/O partition phase. With
  /// `adaptive_fanout` this is only the fallback when no input
  /// statistics exist yet (e.g. the Partition() API called on a file
  /// this join did not write).
  uint32_t num_partitions = 8;

  /// Memory available to one in-memory build (partition pages + hash
  /// table), in bytes. 0 = unlimited (the paper's perfect-balance
  /// assumption). With a budget, a build partition that does not fit
  /// descends the degradation ladder (role reversal, recursive
  /// repartition, chunked build, block nested loop) instead of
  /// overrunning memory.
  uint64_t memory_budget = 0;

  /// Sub-partition fan-out of each recursive repartition level (upper
  /// bound when `adaptive_fanout` re-decides per level).
  uint32_t overflow_fanout = 8;

  /// Levels of recursive repartitioning allowed before falling back to
  /// the chunked build. 0 disables recursion entirely.
  uint32_t max_recursion_depth = 4;

  /// Live memory budget of a scheduler's memory-broker grant. When it
  /// reads non-zero it overrides `memory_budget` and is re-read at every
  /// sizing decision — so a broker revoke mid-join forces subsequent
  /// build partitions to spill (recursive repartition or chunked build),
  /// and a re-grown grant lets them run in memory again.
  BudgetView dynamic_budget;

  /// The grant size at admission, bytes (`MemoryGrant::initial_bytes()`).
  /// Seeds the peak/trough watermarks the revoke/un-spill classification
  /// compares against: without it, a grant revoked before the join's
  /// first sizing decision (e.g. while this query was still writing its
  /// partitions) would never register as "once larger", and the spills
  /// it forces would misclassify as plain skew overflow. 0 = seed from
  /// the first budget the join observes.
  uint64_t initial_grant_bytes = 0;

  /// Re-decide the partition fan-out from observed input instead of the
  /// static counts above: level 0 projects per-fanout partition sizes
  /// from the key-hash histogram sampled while the input file was
  /// written (a power of two up to FileStats::kHistBins), each recursion
  /// level sizes its sub-fanout from the actual overflow of the
  /// partition being split. Off by default — callers that planned around
  /// a fixed `num_partitions` keep exact behavior.
  bool adaptive_fanout = false;

  /// Whether Join()'s build partitions start resident. With it, Join()
  /// is a hybrid hash join: partitions stay in memory through the
  /// partition pass, the live budget evicts smallest-loss victims, a
  /// re-grown budget un-spills them in inverse order, and the resident
  /// partitions are probed on the fly (zero I/O for the resident
  /// fraction). Without it every partition starts spilled and none ever
  /// un-spills: the classic partition-everything GRACE join of the
  /// paper's Figure 9. Both run the same passes.
  bool hybrid_residency = false;

  /// Installs this join's revoke listener on the caller's grant (e.g.
  /// `[&grant](auto fn) { grant.SetRevokeListener(std::move(fn)); }`).
  /// Join() uses it to learn the post-revoke grant size at the moment of
  /// the revoke and evict resident victims at the next page boundary,
  /// instead of discovering the squeeze at its next budget poll. The
  /// join installs an empty listener on exit (the hint closure captures
  /// `this`), and the listener itself only stores to an atomic — it
  /// never calls back into the broker, per the SetRevokeListener
  /// contract.
  std::function<void(std::function<void(uint64_t)>)> install_revoke_listener;
};

/// Recovery actions taken during one Join() call; all zero on a clean,
/// well-balanced run. `io` is the diff of the buffer manager's
/// cumulative stats over the call; the skew counters are tallied by the
/// join itself. Every rung of the degradation ladder is a DiskGraceJoin
/// member that increments exactly one of the reason counters below, so
/// the counters fully classify *why* a join degraded.
struct DiskJoinRecovery {
  /// Retries, checksum and write-verify failures, injected faults and
  /// transfer volume of the call.
  IoRecoveryStats io;
  /// Build partitions that exceeded the budget and were split again.
  uint64_t recursive_splits = 0;
  /// Oversized partitions joined with the chunked multipass build after
  /// the depth cap (or a no-progress split on a skewed partition).
  uint64_t chunked_fallbacks = 0;
  /// Deepest recursive repartition level reached (0 = none needed).
  uint32_t deepest_recursion = 0;
  /// Largest memory actually committed to one in-memory build (chunk
  /// pages + estimated hash table); never exceeds the budget when one is
  /// set.
  uint64_t max_build_bytes = 0;
  /// Build partitions spilled (split, chunked, or evicted) ONLY because
  /// the live grant shrank below the peak budget this join has seen —
  /// i.e. spills a broker revoke forced, as opposed to plain skew
  /// overflow.
  uint64_t revoke_spills = 0;
  /// Build partitions joined fully in memory that would have spilled at
  /// the lowest budget seen — i.e. in-memory work a grant re-growth
  /// ("un-spill") recovered after an earlier revoke.
  uint64_t regrant_unspills = 0;
  /// Partition pairs whose build/probe roles were swapped because the
  /// original probe side was the cheaper one to hold in memory.
  uint64_t role_reversals = 0;
  /// Single-hash partitions joined with the block nested loop (the one
  /// shape no amount of splitting or chunk-table building helps).
  uint64_t bnl_fallbacks = 0;
  /// Resident hybrid partitions evicted by the smallest-loss policy
  /// when the live budget shrank below the resident set.
  uint64_t victim_spills = 0;
  /// Spilled hybrid partitions re-admitted (inverse spill order) after
  /// the budget re-grew.
  uint64_t victim_unspills = 0;

  template <class V>
  static constexpr void VisitFields(V& v) {
    v("io", &DiskJoinRecovery::io);
    v("recursive_splits", &DiskJoinRecovery::recursive_splits);
    v("chunked_fallbacks", &DiskJoinRecovery::chunked_fallbacks);
    v("deepest_recursion", &DiskJoinRecovery::deepest_recursion,
      fields::Kind::kLevel);
    v("max_build_bytes", &DiskJoinRecovery::max_build_bytes,
      fields::Kind::kLevel);
    v("revoke_spills", &DiskJoinRecovery::revoke_spills);
    v("regrant_unspills", &DiskJoinRecovery::regrant_unspills);
    v("role_reversals", &DiskJoinRecovery::role_reversals);
    v("bnl_fallbacks", &DiskJoinRecovery::bnl_fallbacks);
    v("victim_spills", &DiskJoinRecovery::victim_spills);
    v("victim_unspills", &DiskJoinRecovery::victim_unspills);
  }
};

/// Result of a full disk-backed join.
struct DiskJoinResult {
  DiskPhaseStats partition_phase;  // build relation only, as in Fig 9(a)
  DiskPhaseStats probe_partition_phase;
  DiskPhaseStats join_phase;
  uint64_t output_tuples = 0;
  uint32_t num_partitions = 0;
  DiskJoinRecovery recovery;
  /// Per-recursion-level partitioning statistics of this Join() call
  /// (diffed from the join's cumulative tally, like `recovery`). Entry
  /// order is by level; levels with no activity are omitted.
  std::vector<SpillLevelStats> spill_levels;
};

/// GRACE hash join over striped page files (§7.2's real-machine setup):
/// the partition phase streams the input file through the buffer
/// manager's read-ahead scan, hashes each tuple, copies it into a
/// per-partition output page, and writes full pages back in the
/// background; the join phase loads each build partition into a hash
/// table (reusing the memoized hash codes stored in the partition page
/// slots) and streams the probe partition against it with group
/// prefetching. CPU work runs on real memory; I/O runs on the simulated
/// disk array.
///
/// Every fallible path returns a Status: transient I/O faults are
/// absorbed by the buffer manager's retry layer, and only exhausted
/// retries or detected corruption (kDataLoss) surface here.
///
/// A build partition that overflows the budget descends the degradation
/// ladder (DESIGN.md §11), each rung counting itself in the ledger:
///   1. role reversal — join the probe side instead if it fits;
///   2. recursive repartition with a level-salted hash (SaltedRehash),
///      with the fan-out re-decided per level under `adaptive_fanout`;
///   3. chunked multipass build past the depth cap;
///   4. block nested loop when the partition is a single hash code (the
///      shape neither splitting nor chunk hash tables can help).
/// Join() runs one pass structure in both residency modes: build pass,
/// un-spill window, probe pass, then the ladder over the pairs not held
/// in memory. With `hybrid_residency` partitions start resident until
/// the budget evicts smallest-loss victims (PartitionResidency), and the
/// resident fraction is probed with zero join-phase I/O.
class DiskGraceJoin {
 public:
  /// `bm` must outlive this object.
  DiskGraceJoin(BufferManager* bm, const DiskJoinConfig& config);

  /// Convenience: default config with `num_partitions` (legacy callers).
  DiskGraceJoin(BufferManager* bm, uint32_t num_partitions);

  /// Writes a memory-resident relation out as a striped page file,
  /// straight from its pages (BufferManager::WritePages): no pool page
  /// is taken, and the call returns once every page is on disk.
  StatusOr<BufferManager::FileId> StoreRelation(const Relation& rel);

  /// Partitions `input` (a StoreRelation file) into per-partition files;
  /// fills `stats` (optional) with this pass's I/O measurements. The
  /// fan-out is `config().num_partitions`, or histogram-derived under
  /// `adaptive_fanout`.
  StatusOr<std::vector<BufferManager::FileId>> Partition(
      BufferManager::FileId input, DiskPhaseStats* stats);

  /// Joins partition-file pairs, returning the match count. Oversized
  /// build partitions descend the degradation ladder as configured.
  StatusOr<uint64_t> JoinPartitions(
      const std::vector<BufferManager::FileId>& build_parts,
      const std::vector<BufferManager::FileId>& probe_parts,
      DiskPhaseStats* stats);

  /// Full join of two stored relations.
  StatusOr<DiskJoinResult> Join(BufferManager::FileId build,
                                BufferManager::FileId probe);

  const DiskJoinConfig& config() const { return config_; }

 private:
  /// Per-file bookkeeping the sizing decisions need without re-reading
  /// the file: every file this join writes is recorded here. The
  /// key-hash histogram feeds the adaptive fan-out choice (level 0
  /// routes on hash % fanout, so for any fan-out dividing kHistBins the
  /// per-partition tuple counts project exactly from the bins); the
  /// uniform-hash flag detects the single-giant-key partitions only the
  /// block nested loop can handle.
  struct FileStats {
    static constexpr uint32_t kHistBins = 64;
    /// Recursion level of a partition file; -1 for a stored input.
    int level = -1;
    uint64_t tuples = 0;
    uint64_t data_bytes = 0;
    std::array<uint64_t, kHistBins> hist{};
    uint32_t first_hash = 0;
    bool has_tuples = false;
    bool uniform_hash = true;  // every tuple shares one hash code
  };

  struct SpillFiles;  // one side's partition files; defined in grace_disk.cc
  struct JoinState;   // Join()'s pass bookkeeping; defined in grace_disk.cc

  template <typename Fn>
  DiskPhaseStats Measure(Fn&& fn);

  /// The budget to size the next in-memory build by: the live grant when
  /// wired, the static config otherwise. Maintains the peak/trough
  /// watermarks the revoke/un-spill accounting compares against.
  uint64_t EffectiveBudget();

  /// Fan-out for (re)partitioning `input` at `level`: the static config
  /// counts, or — under `adaptive_fanout` — the histogram projection
  /// (level 0) / observed-overflow sizing (level >= 1).
  uint32_t ChooseFanout(BufferManager::FileId input, uint32_t level,
                        uint64_t budget) const;

  /// Ladder rung 1: swaps the build/probe roles of a partition-file
  /// pair. Counting is side-symmetric, so only the memory/I/O plan
  /// changes. Counts `role_reversals`.
  void ReverseRoles(BufferManager::FileId* build,
                    BufferManager::FileId* probe);

  /// Whether every tuple of `file` shares one hash code (recursive
  /// splitting cannot make progress on such a partition).
  bool UniformHash(BufferManager::FileId file) const;

  /// Creates `fanout` partition files at recursion `level` and counts
  /// them in that level's `partitions_written`.
  SpillFiles CreatePartitionFiles(uint32_t fanout, uint32_t level);

  /// Queues one page the join wrote (every slot memoizes its key's
  /// hash) as page `page_index` of `file`, after TallyPage; the page
  /// changes hands, uncopied. Fire-and-forget: write errors surface at
  /// the next FlushWrites.
  void QueueWritePage(BufferManager::FileId file, uint64_t page_index,
                      PageBuffer page);
  /// Tallies one page bound for `file` in the file's FileStats and, for
  /// a partition file, its level's SpillLevelStats. `hashes` says
  /// whether each slot holds HashKey32 of its key: every page the join
  /// writes does, and a stored relation's do when it has_hash_codes();
  /// otherwise each key is hashed for the FileStats.
  void TallyPage(BufferManager::FileId file, const uint8_t* page,
                 SlotHashes hashes);
  /// Checks a page read back from storage that the buffer manager did
  /// not checksum: every slot must lie inside the page (kDataLoss
  /// otherwise), so a torn page cannot send the tuple loops past it.
  Status VerifyPage(const uint8_t* page_bytes) const;

  /// The routing loop of every partitioning pass: splits `input` over
  /// `out`'s partitions. Level 0 hashes the 4-byte key; level >= 1
  /// reroutes on SaltedRehash of the memoized hash code. The original
  /// hash code is memoized in the output slots either way. With a join
  /// state, a full page of a resident partition goes to its residency
  /// instead of its file, and the live budget may claim victims at every
  /// page boundary. `take(p, hash, tuple)` sees each tuple before it is
  /// copied and returns whether it consumed it (the probe pass probes
  /// resident partitions there).
  template <typename Take>
  Status PartitionInto(BufferManager::FileId input, uint32_t level,
                       SpillFiles* out, JoinState* st, Take&& take);

  /// Estimated bytes to join `file`'s pages in memory (pages + table).
  uint64_t EstimateBuildBytes(BufferManager::FileId file) const;

  /// Joins one (build, probe) partition-file pair at recursion `depth`,
  /// adding matches to `*matches` — the degradation ladder lives here.
  Status JoinPartitionPair(BufferManager::FileId build,
                           BufferManager::FileId probe, uint32_t depth,
                           uint64_t* matches);

  /// Ladder rung 0 (no degradation): load the build partition and
  /// stream the probe partition against its hash table.
  Status JoinInMemory(BufferManager::FileId build,
                      BufferManager::FileId probe, uint64_t* matches);

  /// Ladder rung 2: re-split the pair at `depth + 1` over `sub_build`
  /// (already partitioned) and recurse on each sub-pair. Counts
  /// `recursive_splits`.
  Status RecurseSplit(BufferManager::FileId probe, const SpillFiles& sub_build,
                      uint32_t depth, uint64_t* matches);

  /// Ladder rung 3: stream the build partition in budget-sized chunks,
  /// probing the full probe partition against each chunk's hash table
  /// (multipass chunked build). Counts `chunked_fallbacks`.
  Status JoinChunked(BufferManager::FileId build,
                     BufferManager::FileId probe, uint64_t* matches);

  /// Ladder rung 4 (last resort): single-hash build partition — a hash
  /// table would be one long chain, so compare keys directly, build
  /// block by budget-sized block against one probe scan each. Counts
  /// `bnl_fallbacks`.
  Status JoinBlockNestedLoop(BufferManager::FileId build,
                             BufferManager::FileId probe, uint64_t* matches);

  /// Keeps every page of `file` (verified), counting its tuples.
  Status LoadPages(BufferManager::FileId file, std::vector<PageBuffer>* pages,
                   uint64_t* tuples);

  /// Hash table over kept pages (memoized codes), with a bucket count
  /// relatively prime to `fanout`; charges `max_build_bytes`.
  std::unique_ptr<HashTable> BuildTable(const std::vector<PageBuffer>& pages,
                                        uint64_t tuples, uint32_t fanout);

  /// Builds a hash table over loaded pages and streams the probe file
  /// against it.
  Status BuildAndProbe(const std::vector<PageBuffer>& build_pages,
                       uint64_t build_tuples, BufferManager::FileId probe,
                       uint64_t* matches);

  /// Evicts smallest-loss victims until the resident set fits the live
  /// budget (or the revoke-hint target, whichever is tighter).
  void EnforceResidencyBudget(JoinState* st);

  /// Writes one evicted partition's pages to its file (unless the file
  /// already holds the full partition) and drops its hash table. Counts
  /// `victim_spills`.
  void SpillVictim(JoinState* st, uint32_t victim);

  /// Re-admits evicted partitions in inverse spill order while the
  /// budget headroom lasts.
  Status MaybeUnspill(JoinState* st);

  /// Reads partition `p`'s file back into residency. Counts
  /// `victim_unspills`.
  Status UnspillPartition(JoinState* st, uint32_t p);

  void NoteBuildBytes(uint64_t pages, uint64_t tuples);

  /// The cumulative tally with the buffer manager's cumulative I/O
  /// stats; Join() diffs two of these into DiskJoinResult::recovery.
  DiskJoinRecovery Ledger() const {
    DiskJoinRecovery ledger = tally_;
    ledger.io = bm_->recovery_stats();
    return ledger;
  }

  BufferManager* bm_;
  DiskJoinConfig config_;
  uint32_t page_size_;
  std::unordered_map<BufferManager::FileId, FileStats> file_stats_;
  DiskJoinRecovery tally_;  // cumulative skew/recovery tallies (io unused)
  /// Cumulative per-level partitioning statistics, indexed by recursion
  /// level and tallied where pages are written; Join() diffs a snapshot
  /// into DiskJoinResult::spill_levels.
  std::vector<SpillLevelStats> level_tally_;
  /// Largest / smallest non-zero effective budget observed so far; the
  /// deltas against the live value classify spills as revoke-forced and
  /// in-memory builds as un-spilled.
  uint64_t peak_budget_ = 0;
  uint64_t trough_budget_ = UINT64_MAX;
  /// Post-revoke grant size pushed by the broker's revoke listener
  /// (UINT64_MAX = no pending hint); consumed at page boundaries while a
  /// partition is resident. Written from the revoking thread, read from the
  /// joining thread — hence the atomic.
  std::atomic<uint64_t> revoke_hint_{UINT64_MAX};
};

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_GRACE_DISK_H_
