#include "src/gpusim/executor.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

namespace distmsm::gpusim {

support::Status
KernelLaunch::validateLaunch(int grid_dim, int block_dim,
                             std::size_t shared_words)
{
    using support::Status;
    using support::StatusCode;
    if (grid_dim <= 0 || block_dim <= 0) {
        return Status(StatusCode::KernelFault,
                      "empty kernel launch: grid_dim=" +
                          std::to_string(grid_dim) + " block_dim=" +
                          std::to_string(block_dim));
    }
    // No real device offers anywhere near this much per-block shared
    // memory; a request this large is a mis-sized launch, not a
    // tight fit (those are caught against the DeviceSpec budget by
    // the kernel's own configuration check).
    constexpr std::size_t kMaxSharedWords = std::size_t{1} << 21;
    if (shared_words > kMaxSharedWords) {
        return Status(StatusCode::KernelFault,
                      "per-block shared allocation of " +
                          std::to_string(shared_words) +
                          " words exceeds any device");
    }
    return Status::ok();
}

KernelLaunch::KernelLaunch(int grid_dim, int block_dim,
                           std::size_t shared_words, int host_threads)
    : grid_dim_(grid_dim), block_dim_(block_dim),
      host_threads_(support::resolveHostThreads(host_threads))
{
    const support::Status geometry =
        validateLaunch(grid_dim, block_dim, shared_words);
    DISTMSM_REQUIRE(geometry.isOk(), geometry.toString().c_str());
    shared_.reserve(grid_dim);
    for (int b = 0; b < grid_dim; ++b)
        shared_.emplace_back(shared_words, WordArray::Space::Shared);
    blocks_.resize(static_cast<std::size_t>(grid_dim));
}

KernelLaunch::~KernelLaunch()
{
    if (trace_ == nullptr)
        return;
    // Logical time axis: one microsecond per bulk-synchronous phase,
    // so a launch's span length reads as its phase count in Perfetto.
    support::TraceArgs args;
    args.arg("grid_dim", static_cast<double>(grid_dim_))
        .arg("block_dim", static_cast<double>(block_dim_))
        .arg("phases", static_cast<double>(stats_.phases))
        .arg("global_atomics",
             static_cast<double>(stats_.globalAtomics))
        .arg("global_conflict_weight",
             static_cast<double>(stats_.globalConflictWeight))
        .arg("global_max_conflict",
             static_cast<double>(stats_.globalMaxConflict))
        .arg("shared_atomics",
             static_cast<double>(stats_.sharedAtomics))
        .arg("shared_conflict_weight",
             static_cast<double>(stats_.sharedConflictWeight))
        .arg("shared_max_conflict",
             static_cast<double>(stats_.sharedMaxConflict))
        .arg("shared_accesses",
             static_cast<double>(stats_.sharedAccesses))
        .arg("gmem_bytes", static_cast<double>(stats_.gmemBytes));
    trace_->span(trace_label_, "kernel-launch",
                 support::tracelane::kKernelsPid, trace_lane_, 0.0,
                 static_cast<double>(stats_.phases) * 1000.0,
                 std::move(args));
}

WordArray &
KernelLaunch::shared(int bid)
{
    DISTMSM_ASSERT(bid >= 0 && bid < grid_dim_);
    return shared_[bid];
}

void
KernelLaunch::barrier()
{
    // Land every block's deferred reductions first, in block order:
    // a counter must hold all of its writers before any block's
    // first-writer entry folds (and resets) it.
    for (BlockTally &tally : blocks_) {
        for (const Reduction &r : tally.reductions) {
            r.arr->words_[r.index] += r.value;
            if (r.arr->phase_counts_[r.index]++ == 0)
                tally.touched.push_back({r.arr, r.index});
        }
        tally.reductions.clear();
    }
    // Merge the per-block tallies in block index order, then fold
    // each block's first-written indices into the contention stats.
    // An index has exactly one first writer per phase, so it is
    // folded (and its count reset) exactly once; all fields are sums
    // or maxima, so the totals equal the sequential execution's.
    for (BlockTally &tally : blocks_) {
        stats_.merge(tally.stats);
        tally.stats = KernelStats{};
        for (const Touch &t : tally.touched) {
            const std::uint64_t c =
                std::exchange(t.arr->phase_counts_[t.index], 0);
            if (t.arr->space_ == WordArray::Space::Shared) {
                stats_.sharedConflictWeight += c * c;
                stats_.sharedMaxConflict =
                    std::max<std::uint64_t>(stats_.sharedMaxConflict, c);
            } else {
                stats_.globalConflictWeight += c * c;
                stats_.globalMaxConflict =
                    std::max<std::uint64_t>(stats_.globalMaxConflict, c);
            }
        }
        tally.touched.clear();
    }
}

std::uint64_t
KernelLaunch::atomicAdd(WordArray &arr, std::size_t i, std::uint64_t v,
                        const ThreadCtx &ctx)
{
    DISTMSM_ASSERT(i < arr.words_.size());
    const bool is_shared = arr.space_ == WordArray::Space::Shared;

    std::uint64_t old;
    std::uint32_t earlier_writers;
    if (!is_shared && host_threads_ > 1) {
        // Blocks may run on concurrent host threads: fetch-add the
        // word and its writer count. fetch-add commutes, so the final
        // words and writer counts are schedule-independent.
        old = std::atomic_ref<std::uint64_t>(arr.words_[i])
                  .fetch_add(v, std::memory_order_relaxed);
        earlier_writers =
            std::atomic_ref<std::uint32_t>(arr.phase_counts_[i])
                .fetch_add(1, std::memory_order_relaxed);
    } else {
        old = arr.words_[i];
        arr.words_[i] += v;
        earlier_writers = arr.phase_counts_[i]++;
    }

    BlockTally &tally = block(ctx);
    if (earlier_writers == 0)
        tally.touched.push_back({&arr, static_cast<std::uint32_t>(i)});
    if (is_shared) {
        ++tally.stats.sharedAtomics;
    } else {
        ++tally.stats.globalAtomics;
    }
    return old;
}

void
KernelLaunch::reduceAdd(WordArray &arr, std::size_t i, std::uint64_t v,
                        const ThreadCtx &ctx)
{
    DISTMSM_ASSERT(arr.space_ == WordArray::Space::Global);
    if (host_threads_ <= 1) {
        atomicAdd(arr, i, v, ctx);
        return;
    }
    DISTMSM_ASSERT(i < arr.words_.size());
    BlockTally &tally = block(ctx);
    ++tally.stats.globalAtomics;
    tally.reductions.push_back({&arr, static_cast<std::uint32_t>(i), v});
}

} // namespace distmsm::gpusim
