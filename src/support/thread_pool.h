/**
 * @file
 * Host parallelism: one fork-join loop.
 *
 * The host-side work of a simulated MSM splits into independent
 * units: MsmEngine's scalar decompositions, window scatters,
 * bucket-sum chunks and window reduces, the precompute table build
 * and the [rho]P terms of a transfer digest. parallelFor runs those
 * units concurrently while the *results stay bit-identical to the
 * sequential path*: callers write into per-index slots and merge them
 * in a fixed index order, never through racy accumulation (see
 * README "Host parallelism & determinism").
 *
 * Width policy: a caller resolves its requested host-thread count
 * once with resolveHostThreads and passes the result (>= 1) to every
 * parallelFor it issues; width 1 is strictly sequential inline
 * execution (the legacy path).
 */

#ifndef DISTMSM_SUPPORT_THREAD_POOL_H
#define DISTMSM_SUPPORT_THREAD_POOL_H

#include <cstddef>
#include <functional>

namespace distmsm::support {

/**
 * Resolve a requested host-thread count to an effective one:
 * requested >= 1 wins; 0 defers to DISTMSM_HOST_THREADS when it is
 * all digits, fits an int and is >= 1, then to
 * std::thread::hardware_concurrency() (at least 1).
 */
int resolveHostThreads(int requested);

/**
 * Run fn(i) for every i in [begin, end) on at most @p threads host
 * threads: the caller plus helpers from one process-wide pool of
 * max(8, hardware_concurrency()) - 1 workers, which take helper
 * batches from a single FIFO. Blocks until all iterations finished.
 * Iterations may run concurrently and in any order, so fn must only
 * touch state owned by iteration i (typically slot i of a result
 * vector); merge the slots in index order afterwards for
 * deterministic output. The first exception thrown by fn cancels the
 * remaining iterations and is rethrown here. Safe to call from
 * inside fn (nested parallelism): the caller drains its own batch
 * instead of waiting on busy workers.
 *
 * @param threads a resolved width >= 1 (a smaller value fails a
 * DISTMSM_REQUIRE), capped by the pool's width; 1 runs the
 * iterations in ascending order on the calling thread.
 */
void parallelFor(std::size_t begin, std::size_t end,
                 std::function<void(std::size_t)> fn, int threads);

} // namespace distmsm::support

#endif // DISTMSM_SUPPORT_THREAD_POOL_H
