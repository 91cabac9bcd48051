/** @file Tests for the campaign thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/jobs.hh"
#include "harness/thread_pool.hh"

namespace seesaw::harness {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleWorkerStillDrains)
{
    ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesToWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([] { throw std::runtime_error("cell exploded"); });
    for (int i = 0; i < 8; ++i)
        pool.submit([&count] { ++count; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The failure does not poison later work: the pool stays usable
    // and a second wait() does not rethrow the consumed error.
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 9);
}

TEST(ThreadPool, DestructorDrainsQueueOnShutdown)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++count;
            });
        }
        // No wait(): the destructor must still run everything.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitThenReuse)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(DefaultJobs, EnvOverridesHardwareConcurrency)
{
    ::setenv("SEESAW_JOBS", "7", 1);
    EXPECT_EQ(defaultJobs(), 7u);
    ::setenv("SEESAW_JOBS", "garbage", 1);
    EXPECT_GE(defaultJobs(), 1u); // falls back, never 0
    ::unsetenv("SEESAW_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

/** defaultJobs() with SEESAW_JOBS unset: the fallback every rejected
 *  value must produce. */
unsigned
fallbackJobs()
{
    ::unsetenv("SEESAW_JOBS");
    return defaultJobs();
}

TEST(DefaultJobs, RejectsTrailingJunk)
{
    const unsigned fallback = fallbackJobs();
    for (const char *bad : {"7abc", "7 ", "3.5", "0x10", "8k"}) {
        ::setenv("SEESAW_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), fallback) << "SEESAW_JOBS=" << bad;
    }
    ::unsetenv("SEESAW_JOBS");
}

TEST(DefaultJobs, RejectsOutOfRangeValues)
{
    const unsigned fallback = fallbackJobs();
    // 2^32 + 7 would truncate to 7 through an unsigned cast; the
    // others overflow long long or fall below one worker.
    for (const char *bad : {"4294967303", "4294967296",
                            "99999999999999999999999", "0", "-3"}) {
        ::setenv("SEESAW_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), fallback) << "SEESAW_JOBS=" << bad;
    }
    ::setenv("SEESAW_JOBS", "4294967295", 1); // UINT_MAX itself
    EXPECT_EQ(defaultJobs(), 4294967295u);
    ::unsetenv("SEESAW_JOBS");
}

TEST(ParseJobs, AcceptsWholeNumbersFromTheMinimum)
{
    EXPECT_EQ(parseJobs("1"), 1u);
    EXPECT_EQ(parseJobs("16"), 16u);
    EXPECT_EQ(parseJobs("4294967295"), 4294967295u); // UINT_MAX
    EXPECT_EQ(parseJobs("0", /*min=*/0), 0u);
}

TEST(ParseJobs, RejectsNegativeZeroJunkEmptyAndHuge)
{
    for (const char *bad :
         {"-1", "0", "4x", "", "4294967296", "99999999999999999999"})
        EXPECT_EQ(parseJobs(bad), std::nullopt) << "'" << bad << "'";
    // A zero minimum (--workers) still rejects everything else.
    for (const char *bad : {"-1", "4x", "", "4294967296"})
        EXPECT_EQ(parseJobs(bad, /*min=*/0), std::nullopt)
            << "'" << bad << "'";
}

} // namespace
} // namespace seesaw::harness
