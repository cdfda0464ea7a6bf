/**
 * @file
 * Unit tests for support::parallelFor and resolveHostThreads:
 * coverage and determinism contracts, exception propagation, nesting,
 * the exact width-1 path, the width caps and a tiny-task stress run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/support/thread_pool.h"

namespace distmsm::support {
namespace {

TEST(ThreadPool, ParallelForCoversExactRange)
{
    std::vector<int> hits(1000, 0);
    parallelFor(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
    // Non-zero begin.
    std::vector<int> tail(100, 0);
    parallelFor(40, 100, [&](std::size_t i) { ++tail[i]; }, 4);
    for (std::size_t i = 0; i < 40; ++i)
        ASSERT_EQ(tail[i], 0);
    for (std::size_t i = 40; i < 100; ++i)
        ASSERT_EQ(tail[i], 1);
    // Empty and reversed ranges are no-ops.
    parallelFor(5, 5, [&](std::size_t) { FAIL(); }, 4);
    parallelFor(7, 3, [&](std::size_t) { FAIL(); }, 4);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    EXPECT_THROW(parallelFor(0, 1000,
                             [&](std::size_t i) {
                                 if (i == 377)
                                     throw std::runtime_error("boom");
                             },
                             4),
                 std::runtime_error);
    // The pool survives and remains usable afterwards.
    std::atomic<int> counter{0};
    parallelFor(0, 100, [&](std::size_t) { ++counter; }, 4);
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlockAndCovers)
{
    // Every helper goes through the one queue; a nested caller drains
    // its own batch, so it never waits on workers that wait on it.
    constexpr std::size_t kOuter = 8;
    constexpr std::size_t kInner = 64;
    std::vector<std::vector<int>> hits(
        kOuter, std::vector<int>(kInner, 0));
    parallelFor(
        0, kOuter,
        [&](std::size_t o) {
            parallelFor(0, kInner, [&](std::size_t i) { ++hits[o][i]; },
                        4);
        },
        4);
    for (const auto &row : hits)
        for (int h : row)
            ASSERT_EQ(h, 1);
}

TEST(ThreadPool, MaxThreadsOneForcesSequentialInlineOrder)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(
        0, 32,
        [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i); // no race: single thread
        },
        /*threads=*/1);
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i) << "sequential mode must be in-order";
}

TEST(ThreadPool, StressThousandsOfTinyTasks)
{
    constexpr std::size_t kTasks = 100000;
    std::atomic<std::uint64_t> sum{0};
    parallelFor(0, kTasks, [&](std::size_t i) { sum += i; }, 8);
    EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
}

TEST(ThreadPool, ParallelForResultsAreDeterministic)
{
    // Slot-per-index writes merged in index order: the documented
    // usage contract. Identical output for any width of the one pool.
    auto run = [](int width) {
        std::vector<std::uint64_t> out(4096);
        parallelFor(
            0, out.size(),
            [&](std::size_t i) {
                std::uint64_t x = i * 0x9E3779B97F4A7C15ull + 1;
                x ^= x >> 27;
                out[i] = x * 0x2545F4914F6CDD1Dull;
            },
            width);
        return out;
    };
    const auto w1 = run(1);
    EXPECT_EQ(w1, run(2));
    EXPECT_EQ(w1, run(8));
}

TEST(ThreadPool, ParallelForRejectsWidthBelowOne)
{
    // The pool may already run workers: re-execute for the child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(parallelFor(0, 4, [](std::size_t) {}, 0),
                ::testing::ExitedWithCode(1), "width >= 1");
    EXPECT_EXIT(parallelFor(0, 4, [](std::size_t) {}, -3),
                ::testing::ExitedWithCode(1), "width >= 1");
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

/** Distinct threads that ran a @p threads-wide call of 64 ~1 ms
 *  iterations. */
std::size_t
distinctThreads(int threads)
{
    std::mutex m;
    std::set<std::thread::id> seen;
    parallelFor(
        0, 64,
        [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            const std::lock_guard<std::mutex> lock(m);
            seen.insert(std::this_thread::get_id());
        },
        threads);
    return seen.size();
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

TEST(ThreadPool, ParallelForWidthCapsThreads)
{
    const std::size_t seen = distinctThreads(2);
    EXPECT_GE(seen, 1u);
    EXPECT_LE(seen, 2u);
}

TEST(ThreadPool, GlobalWidthIgnoresEnvironment)
{
    // The environment sets the width a caller resolves, never the
    // pool's: a 64-wide call runs on at most max(8, hardware) threads.
    const ScopedHostThreadsEnv env("64");
    const int width = resolveHostThreads(0);
    ASSERT_EQ(width, 64);
    EXPECT_LE(distinctThreads(width),
              static_cast<std::size_t>(std::max(8, hardwareThreads())));
}

} // namespace
} // namespace distmsm::support
