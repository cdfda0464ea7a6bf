/**
 * @file
 * Work-stealing host thread pool.
 *
 * The host-side work of a simulated MSM splits into independent
 * units: MsmEngine's scalar decompositions, window scatters,
 * bucket-sum chunks and window reduces, the precompute table build,
 * the [rho]P terms of a transfer digest and the proving-pipeline
 * estimator's per-size timelines. This pool runs those units
 * concurrently while the *results stay bit-identical to the
 * sequential path*: callers write into per-task slots and merge them
 * in a fixed index order, never through racy accumulation (see
 * README "Host parallelism & determinism").
 *
 * Structure: each worker owns a deque; it pops its own work LIFO and
 * steals FIFO from the shared injection queue or from siblings when
 * idle. parallelFor() self-schedules chunks of the index range
 * through a shared cursor, with the calling thread participating —
 * this makes nested parallelFor calls from inside pool tasks
 * deadlock-free (the nested caller drains its own chunks instead of
 * blocking on an idle pool).
 *
 * Concurrency policy: every parallel entry point takes a "requested
 * host threads" knob with the convention
 *   0  -> the DISTMSM_HOST_THREADS environment override if it is a
 *         plain decimal >= 1 that fits an int, otherwise
 *         std::thread::hardware_concurrency();
 *   1  -> strictly sequential inline execution (the legacy path);
 *   n  -> at most n threads cooperate on the call.
 */

#ifndef DISTMSM_SUPPORT_THREAD_POOL_H
#define DISTMSM_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace distmsm::support {

/**
 * Resolve a requested host-thread count to an effective one:
 * requested >= 1 wins; 0 defers to DISTMSM_HOST_THREADS when it is
 * all digits, fits an int and is >= 1, then to
 * std::thread::hardware_concurrency() (at least 1).
 */
int resolveHostThreads(int requested);

/** Work-stealing pool of host threads. */
class ThreadPool
{
  public:
    /**
     * @param threads logical width of the pool (>= 1). A pool of
     * width 1 spawns no workers: everything runs inline in the
     * calling thread.
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Logical width (worker threads + the calling thread's share). */
    int size() const { return size_; }

    /** Enqueue one task; the future reports completion/exception. */
    std::future<void> submit(std::function<void()> fn);

    /**
     * Run fn(i) for every i in [begin, end). Blocks until all
     * iterations finished. Iterations may run concurrently and in
     * any order, so fn must only touch state owned by iteration i
     * (typically slot i of a result vector); merge the slots in
     * index order afterwards for deterministic output. The first
     * exception thrown by fn cancels the remaining iterations and is
     * rethrown here. Safe to call from inside pool tasks (nested
     * parallelism): the caller helps execute its own chunks.
     *
     * @param max_threads same convention as resolveHostThreads();
     * the effective width is additionally capped by size().
     */
    template <typename Fn>
    void
    parallelFor(std::size_t begin, std::size_t end, Fn &&fn,
                int max_threads = 0)
    {
        parallelForImpl(begin, end, std::function<void(std::size_t)>(
                                        std::forward<Fn>(fn)),
                        max_threads);
    }

    /**
     * The process-wide pool, max(8, hardware_concurrency()) wide:
     * at least 8 logical threads even on narrow hosts so explicit
     * hostThreads requests can be honored, and never sized from
     * DISTMSM_HOST_THREADS. Per-call width is governed by the
     * max_threads argument, capped by size().
     */
    static ThreadPool &global();

  private:
    void parallelForImpl(std::size_t begin, std::size_t end,
                         std::function<void(std::size_t)> fn,
                         int max_threads);
    void enqueue(std::function<void()> task);
    bool takeTask(int self, std::function<void()> &out);
    void workerLoop(int index);

    int size_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::deque<std::function<void()>> injection_;
    std::vector<std::deque<std::function<void()>>> local_;
    std::vector<std::thread> threads_;
};

} // namespace distmsm::support

#endif // DISTMSM_SUPPORT_THREAD_POOL_H
