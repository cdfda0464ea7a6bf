/**
 * @file
 * Functional SIMT executor.
 *
 * Kernels are executed under a bulk-synchronous model: a launch is a
 * sequence of *phases*, each running a callback for every thread of
 * the grid, with an implicit barrier between phases. This matches how
 * the paper's kernels are structured (e.g. the three levels of the
 * hierarchical bucket scatter, Algorithm 3, are phases separated by
 * block barriers) and makes atomicity trivial while still letting the
 * simulator measure *concurrency*: all writes to one address within a
 * phase would contend on real hardware, which is exactly the
 * contention statistic the cost model consumes.
 *
 * Per-thread "registers" live in caller-managed arrays indexed by
 * global thread id; per-block shared memory is allocated by the
 * launch and persists across its phases.
 *
 * Host parallelism: a launch constructed with host_threads != 1 runs
 * the independent thread *blocks* of each phase concurrently on the
 * support::ThreadPool (one task per block); threads within a block
 * stay sequential in tid order. Statistics are accumulated per block
 * and merged in block index order after the barrier. Global atomics
 * are lock-free std::atomic_ref fetch-adds on the word and on its
 * per-phase writer count; the first writer of an index appends it to
 * its own block's list, and the lists fold into the contention stats
 * at the barrier in block order. Return-less reductions (reduceAdd,
 * CUDA's `red`) touch no shared word while blocks run: each block
 * appends (word, value) to its own list, and the barrier applies the
 * lists in block order — word, writer count, first-writer list —
 * before it folds the contention stats, so hot counters never bounce
 * between host cores. Each index has exactly one first writer per
 * phase and every stat is a sum or a maximum, which commute, so
 * every counter and every simulated memory word is bit-identical to
 * the sequential execution. Kernel callbacks must follow the same
 * rules real CUDA kernels do: only touch shared memory of their own
 * block, use atomicAdd() or reduceAdd() for cross-block global
 * writes, never depend on the *ordering* of other blocks' global
 * atomics within a phase, and never read a word they reduce in the
 * same phase.
 */

#ifndef DISTMSM_GPUSIM_EXECUTOR_H
#define DISTMSM_GPUSIM_EXECUTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/gpusim/stats.h"
#include "src/support/check.h"
#include "src/support/status.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace distmsm::gpusim {

class KernelLaunch;

/** Thread coordinates handed to every phase callback. */
struct ThreadCtx
{
    int tid;      ///< thread index within the block
    int bid;      ///< block index
    int blockDim; ///< threads per block
    int gridDim;  ///< blocks in the grid

    /** Global thread id. */
    int gid() const { return bid * blockDim + tid; }
    /** Total threads in the grid. */
    int gridThreads() const { return blockDim * gridDim; }
};

/**
 * A 64-bit word array in simulated memory with atomic counters.
 * Used for both global arrays (one instance for the grid) and
 * per-block shared arrays (owned by KernelLaunch).
 */
class WordArray
{
  public:
    enum class Space { Global, Shared };

    WordArray(std::size_t size, Space space)
        : words_(size, 0), space_(space), phase_counts_(size, 0)
    {
    }

    std::size_t size() const { return words_.size(); }

    std::uint64_t
    read(std::size_t i) const
    {
        DISTMSM_ASSERT(i < words_.size());
        return words_[i];
    }

    void
    write(std::size_t i, std::uint64_t v)
    {
        DISTMSM_ASSERT(i < words_.size());
        words_[i] = v;
    }

    void fill(std::uint64_t v) { words_.assign(words_.size(), v); }

  private:
    friend class KernelLaunch;
    std::vector<std::uint64_t> words_;
    Space space_;
    // Per-phase contention accounting: writer count per word index,
    // reset when the barrier folds it. Flat storage — a hash map here
    // costs ~100 ns per simulated atomic and dominates large scatter
    // launches. Shared arrays need no block salt: each block owns its
    // own WordArray instance, so indices never alias across blocks.
    std::vector<std::uint32_t> phase_counts_;
};

/**
 * One kernel launch: grid geometry, shared memory, phases and stats.
 */
class KernelLaunch
{
  public:
    /**
     * @param grid_dim blocks in the grid.
     * @param block_dim threads per block.
     * @param shared_words 64-bit words of shared memory per block.
     * @param host_threads host threads executing blocks of one phase
     *        concurrently (resolveHostThreads convention; default 1
     *        keeps the legacy strictly-sequential execution).
     */
    KernelLaunch(int grid_dim, int block_dim,
                 std::size_t shared_words, int host_threads = 1);

    /**
     * Check a launch configuration without constructing it: returns
     * KernelFault on empty/negative geometry or a per-block shared
     * allocation the device could never satisfy. Launch sites that
     * participate in the fault-tolerant retry layer validate first
     * and propagate the Status instead of tripping the constructor's
     * hard REQUIRE (kept for direct callers, where bad geometry is a
     * programming error).
     */
    static support::Status validateLaunch(int grid_dim, int block_dim,
                                          std::size_t shared_words);

    /**
     * Emits the launch's trace span on destruction (if tracing was
     * attached): the per-launch record of phases and atomic
     * contention.
     */
    ~KernelLaunch();

    /**
     * Attach structured tracing: when @p trace is non-null, the
     * destructor emits one complete span named @p label on the
     * kernel-launch lane @p lane (tracelane::kKernelsPid), with a
     * logical time axis of one microsecond per bulk-synchronous
     * phase and the full KernelStats — including the atomic
     * contention counters — as args. Zero cost when @p trace is
     * null.
     */
    void
    setTrace(support::TraceRecorder *trace, std::string label,
             int lane)
    {
        trace_ = trace;
        trace_label_ = std::move(label);
        trace_lane_ = lane;
    }

    int gridDim() const { return grid_dim_; }
    int blockDim() const { return block_dim_; }
    int gridThreads() const { return grid_dim_ * block_dim_; }
    /** Effective host threads this launch may use per phase. */
    int hostThreads() const { return host_threads_; }

    /** Per-block shared memory (valid for the whole launch). */
    WordArray &shared(int bid);

    /**
     * Execute one bulk-synchronous phase: @p fn runs for every
     * thread; an implicit barrier follows. Atomic contention is
     * accounted per phase. Blocks may execute on concurrent host
     * threads (see the file comment); threads of one block run
     * sequentially in tid order. @p fn is a template parameter, so a
     * simulated thread is an inlined call.
     */
    template <typename Fn> void phase(Fn &&fn);

    /**
     * Atomic fetch-add on a word array from thread context; records
     * contention in this launch's stats. As on real hardware, the
     * returned reservation is ordered within a block but carries no
     * cross-block ordering guarantee when blocks run concurrently.
     */
    std::uint64_t atomicAdd(WordArray &arr, std::size_t i,
                            std::uint64_t v, const ThreadCtx &ctx);

    /**
     * Return-less global atomic add (CUDA's `red`): adds @p v to
     * word @p i of the global array @p arr and counts one global
     * atomic with the same contention as atomicAdd. With concurrent
     * blocks the add lands at the phase barrier, so no thread may
     * read the word in the phase that reduces it.
     */
    void reduceAdd(WordArray &arr, std::size_t i, std::uint64_t v,
                   const ThreadCtx &ctx);

    /** Plain (non-atomic) shared/global access accounting. */
    void
    countSharedAccess(const ThreadCtx &ctx, std::uint64_t n = 1)
    {
        block(ctx).stats.sharedAccesses += n;
    }

    void
    countGmemBytes(const ThreadCtx &ctx, std::uint64_t bytes)
    {
        block(ctx).stats.gmemBytes += bytes;
    }

    const KernelStats &stats() const { return stats_; }
    KernelStats &stats() { return stats_; }

  private:
    /** A word index whose first writer this phase was in the block. */
    struct Touch
    {
        WordArray *arr;
        std::uint32_t index;
    };

    /** A deferred reduceAdd, applied at the barrier. */
    struct Reduction
    {
        WordArray *arr;
        std::uint32_t index;
        std::uint64_t value;
    };

    /**
     * One block's tallies of the running phase, folded in bid order
     * at the barrier. Cache-line aligned: neighbouring blocks run on
     * different host threads.
     */
    struct alignas(64) BlockTally
    {
        KernelStats stats;
        std::vector<Touch> touched;
        std::vector<Reduction> reductions;
    };

    BlockTally &
    block(const ThreadCtx &ctx)
    {
        return blocks_[static_cast<std::size_t>(ctx.bid)];
    }

    template <typename Fn> void runBlock(int bid, Fn &fn);
    void barrier();

    int grid_dim_;
    int block_dim_;
    int host_threads_;
    support::TraceRecorder *trace_ = nullptr;
    std::string trace_label_;
    int trace_lane_ = 0;
    std::vector<WordArray> shared_;
    std::vector<BlockTally> blocks_;
    KernelStats stats_;
};

template <typename Fn>
void
KernelLaunch::runBlock(int bid, Fn &fn)
{
    for (int tid = 0; tid < block_dim_; ++tid) {
        ThreadCtx ctx{tid, bid, block_dim_, grid_dim_};
        fn(ctx);
    }
}

template <typename Fn>
void
KernelLaunch::phase(Fn &&fn)
{
    ++stats_.phases;
    if (host_threads_ <= 1 || grid_dim_ == 1) {
        for (int bid = 0; bid < grid_dim_; ++bid)
            runBlock(bid, fn);
    } else {
        support::ThreadPool::global().parallelFor(
            0, static_cast<std::size_t>(grid_dim_),
            [&](std::size_t bid) {
                runBlock(static_cast<int>(bid), fn);
            },
            host_threads_);
    }
    barrier();
}

} // namespace distmsm::gpusim

#endif // DISTMSM_GPUSIM_EXECUTOR_H
