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
 * Execution order: a phase runs its blocks in index order, and each
 * block's threads in tid order, on the calling thread. Contention is
 * a property of which threads write which word within a phase, not
 * of the order they run in, so the fixed order changes no statistic.
 * Host parallelism lives one layer up, where MsmEngine runs whole
 * scatter launches and the bucket-sum chunks concurrently on the
 * support::ThreadPool. Kernel callbacks still follow the rules real
 * CUDA kernels do: only touch shared memory of their own block, use
 * atomicAdd() for global words other threads also write, and never
 * depend on the ordering of other blocks' atomics within a phase.
 */

#ifndef DISTMSM_GPUSIM_EXECUTOR_H
#define DISTMSM_GPUSIM_EXECUTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/gpusim/stats.h"
#include "src/support/check.h"
#include "src/support/status.h"
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
     */
    KernelLaunch(int grid_dim, int block_dim, std::size_t shared_words);

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

    /** Per-block shared memory (valid for the whole launch). */
    WordArray &shared(int bid);

    /**
     * Execute one bulk-synchronous phase: @p fn runs for every
     * thread, blocks in index order and threads of a block in tid
     * order, on the calling thread; an implicit barrier follows.
     * Atomic contention is accounted per phase. @p fn is a template
     * parameter, so a simulated thread is an inlined call.
     */
    template <typename Fn> void phase(Fn &&fn);

    /**
     * Atomic fetch-add on a word array from thread context; records
     * contention in this launch's stats and returns the old value.
     */
    std::uint64_t atomicAdd(WordArray &arr, std::size_t i,
                            std::uint64_t v, const ThreadCtx &ctx);

    /** Plain (non-atomic) shared/global access accounting. */
    void
    countSharedAccess(const ThreadCtx &, std::uint64_t n = 1)
    {
        stats_.sharedAccesses += n;
    }

    void
    countGmemBytes(const ThreadCtx &, std::uint64_t bytes)
    {
        stats_.gmemBytes += bytes;
    }

    const KernelStats &stats() const { return stats_; }
    KernelStats &stats() { return stats_; }

  private:
    /** A word index first written in the running phase. */
    struct Touch
    {
        WordArray *arr;
        std::uint32_t index;
    };

    void barrier();

    int grid_dim_;
    int block_dim_;
    support::TraceRecorder *trace_ = nullptr;
    std::string trace_label_;
    int trace_lane_ = 0;
    std::vector<WordArray> shared_;
    std::vector<Touch> touched_;
    KernelStats stats_;
};

template <typename Fn>
void
KernelLaunch::phase(Fn &&fn)
{
    ++stats_.phases;
    for (int bid = 0; bid < grid_dim_; ++bid) {
        for (int tid = 0; tid < block_dim_; ++tid) {
            ThreadCtx ctx{tid, bid, block_dim_, grid_dim_};
            fn(ctx);
        }
    }
    barrier();
}

} // namespace distmsm::gpusim

#endif // DISTMSM_GPUSIM_EXECUTOR_H
