#include "src/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "src/support/check.h"
#include "src/support/parse.h"

namespace distmsm::support {

namespace {

/** Pool and worker index of the current thread, if it is a worker. */
thread_local ThreadPool *tl_pool = nullptr;
thread_local int tl_worker = -1;

/** std::thread::hardware_concurrency(), at least 1. */
int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

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

ThreadPool::ThreadPool(int threads) : size_(threads)
{
    DISTMSM_REQUIRE(threads >= 1, "thread pool needs width >= 1");
    local_.resize(static_cast<std::size_t>(size_));
    threads_.reserve(static_cast<std::size_t>(size_ - 1));
    // Width w = w - 1 workers plus the submitting/calling thread.
    for (int i = 0; i < size_ - 1; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // A worker submitting to its own pool pushes to its deque
        // (popped LIFO by the owner, stolen FIFO by siblings).
        if (tl_pool == this && tl_worker >= 0)
            local_[static_cast<std::size_t>(tl_worker)].push_back(
                std::move(task));
        else
            injection_.push_back(std::move(task));
    }
    cv_.notify_one();
}

bool
ThreadPool::takeTask(int self, std::function<void()> &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (self >= 0) {
        auto &own = local_[static_cast<std::size_t>(self)];
        if (!own.empty()) { // own work: newest first
            out = std::move(own.back());
            own.pop_back();
            return true;
        }
    }
    if (!injection_.empty()) {
        out = std::move(injection_.front());
        injection_.pop_front();
        return true;
    }
    for (auto &victim : local_) { // steal: oldest first
        if (!victim.empty()) {
            out = std::move(victim.front());
            victim.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(int index)
{
    tl_pool = this;
    tl_worker = index;
    for (;;) {
        std::function<void()> task;
        if (takeTask(index, task)) {
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this, index] {
            if (stop_)
                return true;
            if (!injection_.empty())
                return true;
            for (const auto &q : local_)
                if (!q.empty())
                    return true;
            (void)index;
            return false;
        });
        if (stop_) {
            // Drain what is left so queued futures still complete.
            lock.unlock();
            std::function<void()> last;
            while (takeTask(index, last))
                last();
            return;
        }
    }
}

std::future<void>
ThreadPool::submit(std::function<void()> fn)
{
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::move(fn));
    std::future<void> future = task->get_future();
    if (size_ <= 1) { // width-1 pool: inline execution
        (*task)();
        return future;
    }
    enqueue([task] { (*task)(); });
    return future;
}

namespace {

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

} // namespace

void
ThreadPool::parallelForImpl(std::size_t begin, std::size_t end,
                            std::function<void(std::size_t)> fn,
                            int max_threads)
{
    if (end <= begin)
        return;
    const std::size_t n = end - begin;
    const int width = std::min(
        size_, max_threads > 0 ? max_threads : size_);
    if (width <= 1 || n == 1) {
        // Exact sequential path: ascending order, caller's thread.
        for (std::size_t i = begin; i < n + begin; ++i)
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

    const std::size_t helpers = std::min<std::size_t>(
        static_cast<std::size_t>(width) - 1, n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        enqueue([batch] { batch->run(); });

    batch->run(); // the caller participates (nested-safe)

    std::unique_lock<std::mutex> lock(batch->m);
    batch->cv.wait(lock, [&] {
        return batch->completed.load() == batch->total;
    });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

ThreadPool &
ThreadPool::global()
{
    // At least 8 logical threads so explicit hostThreads requests up
    // to 8 exercise real concurrency even on narrow CI hosts; idle
    // workers sleep on the condition variable. Never sized from
    // DISTMSM_HOST_THREADS: a wider per-call request is capped by
    // size(), so no setting can start more threads than this.
    static ThreadPool pool(std::max(hardwareThreads(), 8));
    return pool;
}

} // namespace distmsm::support
