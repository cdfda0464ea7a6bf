/**
 * @file
 * Unit tests for support::ThreadPool: task completion, parallelFor
 * coverage and determinism contracts, exception propagation, nested
 * submission, the pool-size-1 degeneracy and a tiny-task stress run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/thread_pool.h"

namespace distmsm::support {
namespace {

TEST(ThreadPool, SubmittedTasksComplete)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([&] { ++counter; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        [] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversExactRange)
{
    ThreadPool pool(4);
    std::vector<int> hits(1000, 0);
    pool.parallelFor(0, hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
    // Non-zero begin.
    std::vector<int> tail(100, 0);
    pool.parallelFor(40, 100, [&](std::size_t i) { ++tail[i]; });
    for (std::size_t i = 0; i < 40; ++i)
        ASSERT_EQ(tail[i], 0);
    for (std::size_t i = 40; i < 100; ++i)
        ASSERT_EQ(tail[i], 1);
    // Empty and reversed ranges are no-ops.
    pool.parallelFor(5, 5, [&](std::size_t) { FAIL(); });
    pool.parallelFor(7, 3, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 1000,
                         [&](std::size_t i) {
                             if (i == 377)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives and remains usable afterwards.
    std::atomic<int> counter{0};
    pool.parallelFor(0, 100, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlockAndCovers)
{
    ThreadPool pool(4);
    constexpr std::size_t kOuter = 8;
    constexpr std::size_t kInner = 64;
    std::vector<std::vector<int>> hits(
        kOuter, std::vector<int>(kInner, 0));
    pool.parallelFor(0, kOuter, [&](std::size_t o) {
        pool.parallelFor(0, kInner,
                         [&](std::size_t i) { ++hits[o][i]; });
    });
    for (const auto &row : hits)
        for (int h : row)
            ASSERT_EQ(h, 1);
}

TEST(ThreadPool, NestedSubmissionFromWorkerCompletes)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    auto outer = pool.submit([&] {
        std::vector<std::future<void>> inner;
        for (int i = 0; i < 8; ++i)
            inner.push_back(pool.submit([&] { ++counter; }));
        // Waiting inside a worker is safe: siblings (or the drain on
        // shutdown) execute the inner tasks.
        for (auto &f : inner)
            f.get();
        ++counter;
    });
    outer.get();
    EXPECT_EQ(counter.load(), 9);
}

TEST(ThreadPool, PoolSizeOneRunsInlineInCallingThread)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(16);
    pool.parallelFor(0, seen.size(), [&](std::size_t i) {
        seen[i] = std::this_thread::get_id();
    });
    for (const auto &id : seen)
        EXPECT_EQ(id, caller);
    // submit() is inline too — the future is ready on return.
    bool ran = false;
    auto f = pool.submit([&] { ran = true; });
    EXPECT_TRUE(ran);
    f.get();
}

TEST(ThreadPool, MaxThreadsOneForcesSequentialInlineOrder)
{
    ThreadPool pool(8);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.parallelFor(
        0, 32,
        [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i); // no race: single thread
        },
        /*max_threads=*/1);
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i) << "sequential mode must be in-order";
}

TEST(ThreadPool, StressThousandsOfTinyTasks)
{
    ThreadPool pool(8);
    constexpr std::size_t kTasks = 100000;
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(0, kTasks,
                     [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);

    std::atomic<int> submitted{0};
    std::vector<std::future<void>> futures;
    futures.reserve(2000);
    for (int i = 0; i < 2000; ++i)
        futures.push_back(pool.submit([&] { ++submitted; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(submitted.load(), 2000);
}

TEST(ThreadPool, ParallelForResultsAreDeterministic)
{
    // Slot-per-index writes merged in index order: the documented
    // usage contract. Identical output for any width.
    auto run = [](int width) {
        ThreadPool pool(width);
        std::vector<std::uint64_t> out(4096);
        pool.parallelFor(0, out.size(), [&](std::size_t i) {
            std::uint64_t x = i * 0x9E3779B97F4A7C15ull + 1;
            x ^= x >> 27;
            out[i] = x * 0x2545F4914F6CDD1Dull;
        });
        return out;
    };
    const auto w1 = run(1);
    EXPECT_EQ(w1, run(2));
    EXPECT_EQ(w1, run(8));
}

/** Sets DISTMSM_HOST_THREADS for its lifetime, then restores it. */
class ScopedHostThreadsEnv
{
  public:
    explicit ScopedHostThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv(kName)) {
            had_ = true;
            saved_ = old;
        }
        setenv(kName, value, 1);
    }

    ~ScopedHostThreadsEnv()
    {
        if (had_)
            setenv(kName, saved_.c_str(), 1);
        else
            unsetenv(kName);
    }

  private:
    static constexpr const char *kName = "DISTMSM_HOST_THREADS";
    bool had_ = false;
    std::string saved_;
};

int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

TEST(ThreadPool, ResolveHostThreadsConvention)
{
    EXPECT_EQ(resolveHostThreads(1), 1);
    EXPECT_EQ(resolveHostThreads(7), 7);
    {
        const ScopedHostThreadsEnv env("13");
        EXPECT_EQ(resolveHostThreads(0), 13);
        EXPECT_EQ(resolveHostThreads(2), 2); // an explicit request wins
    }
    // Anything but a plain decimal >= 1 that fits an int falls back
    // to the hardware width, as an unset variable does.
    for (const char *bad :
         {"13abc", " 13", "+13", "013", "0x10", "-2", "0", "",
          "3000000000", "99999999999"}) {
        SCOPED_TRACE(std::string("value '") + bad + "'");
        const ScopedHostThreadsEnv env(bad);
        EXPECT_EQ(resolveHostThreads(0), hardwareThreads());
    }
}

TEST(ThreadPool, GlobalWidthIgnoresEnvironment)
{
    const ScopedHostThreadsEnv env("64");
    EXPECT_EQ(ThreadPool::global().size(),
              std::max(8, hardwareThreads()));
}

} // namespace
} // namespace distmsm::support
