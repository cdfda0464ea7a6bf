#include "src/gpusim/executor.h"

#include <algorithm>
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
                           std::size_t shared_words)
    : grid_dim_(grid_dim), block_dim_(block_dim)
{
    const support::Status geometry =
        validateLaunch(grid_dim, block_dim, shared_words);
    DISTMSM_REQUIRE(geometry.isOk(), geometry.toString().c_str());
    shared_.reserve(grid_dim);
    for (int b = 0; b < grid_dim; ++b)
        shared_.emplace_back(shared_words, WordArray::Space::Shared);
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
    // Fold every index written this phase into the contention stats.
    // Each index was listed by its first writer, so it is folded (and
    // its count reset) exactly once.
    for (const Touch &t : touched_) {
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
    touched_.clear();
}

std::uint64_t
KernelLaunch::atomicAdd(WordArray &arr, std::size_t i, std::uint64_t v,
                        const ThreadCtx &)
{
    DISTMSM_ASSERT(i < arr.words_.size());
    const std::uint64_t old = arr.words_[i];
    arr.words_[i] += v;
    if (arr.phase_counts_[i]++ == 0)
        touched_.push_back({&arr, static_cast<std::uint32_t>(i)});
    if (arr.space_ == WordArray::Space::Shared) {
        ++stats_.sharedAtomics;
    } else {
        ++stats_.globalAtomics;
    }
    return old;
}

} // namespace distmsm::gpusim
