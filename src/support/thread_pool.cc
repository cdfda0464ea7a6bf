#include "src/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/support/check.h"
#include "src/support/parse.h"

namespace distmsm::support {

namespace {

/** std::thread::hardware_concurrency(), at least 1. */
int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

/**
 * Width of the process-wide pool, the cap on every parallelFor: at
 * least 8 logical threads so explicit hostThreads requests up to 8
 * exercise real concurrency even on narrow CI hosts. Never sized from
 * DISTMSM_HOST_THREADS, so no setting can start more threads.
 */
int
poolWidth()
{
    static const int width = std::max(hardwareThreads(), 8);
    return width;
}

/** Shared state of one parallelFor call, self-scheduled in chunks. */
struct Batch
{
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
    std::size_t chunk = 1;
    std::size_t total = 0;
    std::function<void(std::size_t)> fn;
    std::atomic<std::size_t> completed{0};
    std::atomic<bool> cancelled{false};
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;

    /**
     * Claim and run chunks until the range is exhausted. Claimed
     * iterations are always counted as completed (skipped once
     * cancelled), so `completed` reliably reaches `total`.
     */
    void
    run()
    {
        for (;;) {
            const std::size_t i0 = next.fetch_add(chunk);
            if (i0 >= end)
                return;
            const std::size_t i1 = std::min(end, i0 + chunk);
            if (!cancelled.load()) {
                for (std::size_t i = i0; i < i1; ++i) {
                    try {
                        fn(i);
                    } catch (...) {
                        {
                            std::lock_guard<std::mutex> lock(m);
                            if (!error)
                                error = std::current_exception();
                        }
                        cancelled.store(true);
                        break;
                    }
                }
            }
            const std::size_t done =
                completed.fetch_add(i1 - i0) + (i1 - i0);
            if (done == total) {
                std::lock_guard<std::mutex> lock(m);
                cv.notify_all();
            }
        }
    }
};

/**
 * The process-wide pool: poolWidth() - 1 workers that take helper
 * entries from one FIFO and help run their batch; idle workers sleep
 * on the condition variable. A helper that arrives after its caller
 * drained the batch finds the range exhausted and returns at once.
 */
class Pool
{
  public:
    static Pool &
    global()
    {
        static Pool pool(poolWidth() - 1);
        return pool;
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    /** Queue one helper for @p batch and wake one worker. */
    void
    push(const std::shared_ptr<Batch> &batch)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(batch);
        }
        cv_.notify_one();
    }

  private:
    explicit Pool(int workers)
    {
        threads_.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    void
    workerLoop()
    {
        for (;;) {
            std::shared_ptr<Batch> batch;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
                if (stop_)
                    return;
                batch = std::move(queue_.front());
                queue_.pop_front();
            }
            batch->run();
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::deque<std::shared_ptr<Batch>> queue_;
    std::vector<std::thread> threads_;
};

} // namespace

int
resolveHostThreads(int requested)
{
    if (requested >= 1)
        return requested;
    // Digits only, fitting an int: "4abc", " 4", "-2" or a number
    // past INT_MAX falls back to the hardware width, as unset does.
    int env = 0;
    if (const char *text = std::getenv("DISTMSM_HOST_THREADS");
        text != nullptr && parseDecimal<int>(text, env) && env >= 1)
        return env;
    return hardwareThreads();
}

void
parallelFor(std::size_t begin, std::size_t end,
            std::function<void(std::size_t)> fn, int threads)
{
    DISTMSM_REQUIRE(threads >= 1, "parallelFor needs a width >= 1");
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    const int width = std::min(threads, poolWidth());
    if (width <= 1 || n == 1) {
        // Exact sequential path: ascending order, caller's thread.
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->next.store(begin);
    batch->end = end;
    batch->total = n;
    batch->chunk = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(width) * 8));
    batch->fn = std::move(fn);

    Pool &pool = Pool::global();
    const std::size_t helpers = std::min<std::size_t>(
        static_cast<std::size_t>(width) - 1, n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        pool.push(batch);

    batch->run(); // the caller participates (nested-safe)

    std::unique_lock<std::mutex> lock(batch->m);
    batch->cv.wait(lock, [&] {
        return batch->completed.load() == batch->total;
    });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace distmsm::support
