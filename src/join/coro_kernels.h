#ifndef HASHJOIN_JOIN_CORO_KERNELS_H_
#define HASHJOIN_JOIN_CORO_KERNELS_H_

// Coroutine-interleaved execution policy (AMAC-style): W long-lived
// tuple chains share one input cursor, each chain running the same
// stage functions as the hand-scheduled schemes with a co_await
// suspension at every stage boundary. A round-robin scheduler resumes
// the chains in turn, so between a chain's prefetch and its dependent
// access every other chain executes one stage — the same overlap the
// paper builds by strip-mining (§4) or software-pipelining (§5), but
// with the per-tuple state machine kept implicit in the coroutine
// frame. See "Asynchronous Memory Access Chaining" and "Interleaving
// with Coroutines" (PAPERS.md); DESIGN.md "Execution policies".

#include <coroutine>
#include <exception>
#include <utility>
#include <vector>

#include "join/aggregate_kernels.h"
#include "join/build_kernels.h"
#include "join/join_common.h"
#include "join/partition_kernels.h"
#include "join/probe_kernels.h"
#include "util/logging.h"

namespace hashjoin {

/// Minimal coroutine task for the kernel chains: lazily started (the
/// scheduler's first Resume runs stage 0), suspends at co_await
/// NextStage{}, and keeps the frame alive after completion so done() is
/// observable. Move-only; the destructor frees the frame.
class KernelCoro {
 public:
  /// The stage-boundary awaiter. hjlint's prefetch-stage-discipline rule
  /// treats a `co_await` line as the end of a stage segment.
  using NextStage = std::suspend_always;

  struct promise_type {
    KernelCoro get_return_object() {
      return KernelCoro(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() { std::terminate(); }
  };

  KernelCoro() = default;
  explicit KernelCoro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  KernelCoro(KernelCoro&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  KernelCoro& operator=(KernelCoro&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  KernelCoro(const KernelCoro&) = delete;
  KernelCoro& operator=(const KernelCoro&) = delete;
  ~KernelCoro() {
    if (handle_) handle_.destroy();
  }

  bool done() const { return !handle_ || handle_.done(); }

  /// Runs the chain up to its next co_await (one stage).
  void Resume() { handle_.resume(); }

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// Round-robin scheduler over `width` chains: every live chain executes
/// exactly one stage per sweep, so a chain that prefetched and suspended
/// gets width-1 stages of other chains' work between its prefetch and
/// its dependent access. Charges cost_stage_overhead_coro per resume —
/// the scheduler dispatch plus the frame switch a suspension implies.
template <typename MM, typename MakeChain>
void RunCoroPipeline(MM& mm, uint32_t width, MakeChain&& make_chain) {
  width = std::max(1u, width);
  const auto& cfg = mm.config();
  std::vector<KernelCoro> chains;
  chains.reserve(width);
  for (uint32_t i = 0; i < width; ++i) chains.push_back(make_chain(i));
  uint32_t live = width;
  while (live > 0) {
    for (KernelCoro& chain : chains) {
      if (chain.done()) continue;
      mm.Busy(cfg.cost_stage_overhead_coro);
      chain.Resume();
      if (chain.done()) --live;
    }
  }
}

/// One probe chain: pulls tuples from the shared cursor until the input
/// is exhausted, suspending between the probe stages. A chain's stage 3
/// and its next tuple's stage 0 share a resume, as in AMAC's FINISHED
/// transition.
template <typename MM>
KernelCoro ProbeChain(ProbeContext<MM>& ctx, ProbeState& st) {
  while (ProbeStage0(ctx, st, /*prefetch=*/true)) {
    co_await KernelCoro::NextStage{};
    ProbeStage1(ctx, st, /*prefetch=*/true);
    co_await KernelCoro::NextStage{};
    ProbeStage2(ctx, st, /*prefetch=*/true);
    co_await KernelCoro::NextStage{};
    ProbeStage3(ctx, st);
  }
}

/// Coroutine-interleaved probing. Interleave width W comes from the
/// effective group size (the drivers feed it from model::ChooseParams or
/// an online tuner — the same Theorem-1 sizing GP uses: W concurrent
/// chains hide the same latency G concurrent group slots do).
template <typename MM>
uint64_t ProbeCoro(MM& mm, const Relation& probe, const HashTable& ht,
                   uint32_t build_tuple_size, const KernelParams& params,
                   Relation* out, ProbeStats* stats = nullptr) {
  const uint32_t width = params.EffectiveGroupSize();
  ProbeContext<MM> ctx(&mm, &ht, build_tuple_size,
                       probe.schema().fixed_size(), probe, out, params);
  std::vector<ProbeState> states(width);
  RunCoroPipeline(mm, width,
                  [&](uint32_t i) { return ProbeChain(ctx, states[i]); });
  return FinishProbe(ctx, stats);
}

/// One build chain. A busy bucket (owned by another in-flight chain)
/// suspends and retries: the owner is resumed before this chain's next
/// retry — round-robin guarantees it — and its stage 2 releases the
/// bucket, so the retry loop always terminates. This is the coroutine
/// analogue of §5.3's waiting queue, with the scheduler's sweep standing
/// in for the explicit queue links.
template <typename MM>
KernelCoro BuildChain(BuildContext<MM>& ctx, BuildState& st,
                      uint32_t owner_tag) {
  while (BuildStage0(ctx, st, /*prefetch=*/true)) {
    co_await KernelCoro::NextStage{};
    while (!BuildStage1(ctx, st, /*prefetch=*/true, owner_tag)) {
      co_await KernelCoro::NextStage{};
    }
    co_await KernelCoro::NextStage{};
    BuildStage2(ctx, st);
  }
}

/// Coroutine-interleaved hash-table build.
template <typename MM>
void BuildCoro(MM& mm, const Relation& build, HashTable* ht,
               const KernelParams& params) {
  const uint32_t width = params.EffectiveGroupSize();
  BuildContext<MM> ctx(&mm, ht, build, params.hash_mode);
  std::vector<BuildState> states(width);
  RunCoroPipeline(mm, width, [&](uint32_t i) {
    return BuildChain(ctx, states[i], /*owner_tag=*/i + 1);
  });
}

/// One partition chain. A full output page with copies still in flight
/// suspends until the owning chains' stage 2s drain `pending`; with no
/// copies in flight the page is flushed and the claim retried inline
/// (the same protocol PartitionSwp applies through its waiting queue).
template <typename MM>
KernelCoro PartitionChain(PartitionContext<MM>& ctx, PartitionState& st) {
  while (PartitionStage0(ctx, st, /*prefetch=*/true,
                         /*prefetch_input_pages=*/true)) {
    co_await KernelCoro::NextStage{};
    while (!PartitionStage1(ctx, st, /*prefetch=*/true)) {
      if (st.sink->pending == 0) {
        AccountedFlush(ctx, st.sink);
        bool ok = PartitionStage1(ctx, st, /*prefetch=*/true);
        HJ_CHECK(ok);
        break;
      }
      co_await KernelCoro::NextStage{};
    }
    co_await KernelCoro::NextStage{};
    PartitionStage2(ctx, st);
  }
}

/// Coroutine-interleaved partitioning.
template <typename MM>
void PartitionCoro(MM& mm, const Relation& input, PartitionSinkSet* sinks,
                   uint32_t num_partitions, const KernelParams& params,
                   uint32_t hash_divisor = 1, PageRange range = PageRange{}) {
  const uint32_t width = params.EffectiveGroupSize();
  PartitionContext<MM> ctx(&mm, sinks, num_partitions, input, hash_divisor,
                           range);
  std::vector<PartitionState> states(width);
  RunCoroPipeline(mm, width,
                  [&](uint32_t i) { return PartitionChain(ctx, states[i]); });
  sinks->FinalFlushAll();
}

/// One aggregation chain (k = 2: bucket visit, accumulator update).
template <typename MM>
KernelCoro AggChain(MM& mm, TupleCursor& cursor, AggPipelineState& st,
                    uint32_t value_offset, HashAggTable* agg) {
  while (AggStage0(mm, cursor, st, value_offset, agg->table(),
                   /*prefetch=*/true)) {
    co_await KernelCoro::NextStage{};
    st.state = AggVisitBucket(mm, agg, st.hash, st.key);
    mm.Prefetch(st.state, sizeof(AggState));
    co_await KernelCoro::NextStage{};
    AggUpdate(mm, st);
  }
}

/// Coroutine-interleaved hash aggregation.
template <typename MM>
void AggregateCoro(MM& mm, const Relation& input, uint32_t value_offset,
                   HashAggTable* agg, uint32_t width) {
  width = std::max(1u, width);
  TupleCursor cursor(input);
  std::vector<AggPipelineState> states(width);
  RunCoroPipeline(mm, width, [&](uint32_t i) {
    return AggChain(mm, cursor, states[i], value_offset, agg);
  });
}

}  // namespace hashjoin

#endif  // HASHJOIN_JOIN_CORO_KERNELS_H_
