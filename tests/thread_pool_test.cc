// Tests for base::ThreadPool: the deterministic chunking contract,
// nested/serial fast paths, exception barring, env sizing, and
// shutdown while callers are hammering the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/thread_pool.h"

namespace lake::base {
namespace {

/** Runs fn(b, e) chunks through @p pool and returns the sorted chunk
 *  list, verifying every index was visited exactly once. */
std::vector<std::pair<std::size_t, std::size_t>>
collectChunks(ThreadPool &pool, std::size_t begin, std::size_t end,
              std::size_t grain)
{
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    std::vector<int> visits(end, 0);
    pool.parallelFor(begin, end, grain,
                     [&](std::size_t b, std::size_t e) {
                         std::lock_guard<std::mutex> lk(mu);
                         chunks.emplace_back(b, e);
                         for (std::size_t i = b; i < e; ++i)
                             ++visits[i];
                     });
    for (std::size_t i = begin; i < end; ++i)
        EXPECT_EQ(visits[i], 1) << "index " << i;
    std::sort(chunks.begin(), chunks.end());
    return chunks;
}

TEST(ThreadPoolTest, ChunkBoundariesArePureFunctionOfRangeAndGrain)
{
    ThreadPool p1(1), p4(4);
    for (auto [begin, end, grain] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{0, 100, 7},
          {3, 100, 7},
          {0, 1, 1},
          {0, 64, 64},
          {0, 65, 64},
          {5, 5, 3},   // empty range: no chunks
          {0, 10, 0},  // grain 0 clamps to 1
          {0, 1000, 1}}) {
        auto a = collectChunks(p1, begin, end, grain);
        auto b = collectChunks(p4, begin, end, grain);
        EXPECT_EQ(a, b) << "range [" << begin << ", " << end
                        << ") grain " << grain;
        // Chunks tile the range: contiguous, ascending, grain-sized
        // except possibly the last.
        std::size_t expect_b = begin;
        std::size_t g = grain ? grain : 1;
        for (std::size_t c = 0; c < a.size(); ++c) {
            EXPECT_EQ(a[c].first, expect_b);
            if (c + 1 < a.size()) {
                EXPECT_EQ(a[c].second - a[c].first, g);
            }
            expect_b = a[c].second;
        }
        if (begin < end) {
            EXPECT_EQ(expect_b, end);
        } else {
            EXPECT_TRUE(a.empty());
        }
    }
}

TEST(ThreadPoolTest, ResultsIdenticalAcrossThreadCounts)
{
    // Each chunk writes disjoint output; per the determinism contract
    // the float results must be bit-identical at any thread count.
    const std::size_t n = 4096;
    auto run = [n](std::size_t threads) {
        ThreadPool pool(threads);
        std::vector<float> out(n);
        pool.parallelFor(0, n, 13, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                float acc = 0.0f;
                for (std::size_t j = 0; j < 32; ++j)
                    acc += static_cast<float>((i * 31 + j) % 97) * 0.13f;
                out[i] = acc;
            }
        });
        return out;
    };
    std::vector<float> t1 = run(1), t2 = run(2), t8 = run(8);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(t1[i], t2[i]) << i;
        ASSERT_EQ(t1[i], t8[i]) << i;
    }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineOnCallingThread)
{
    ThreadPool pool(4);
    std::atomic<int> outer_chunks{0};
    std::atomic<int> inner_total{0};
    std::atomic<bool> inner_same_thread{true};
    pool.parallelFor(0, 8, 1, [&](std::size_t, std::size_t) {
        ++outer_chunks;
        std::thread::id outer_tid = std::this_thread::get_id();
        pool.parallelFor(0, 16, 4, [&](std::size_t b, std::size_t e) {
            if (std::this_thread::get_id() != outer_tid)
                inner_same_thread = false;
            inner_total += static_cast<int>(e - b);
        });
    });
    EXPECT_EQ(outer_chunks.load(), 8);
    EXPECT_EQ(inner_total.load(), 8 * 16);
    EXPECT_TRUE(inner_same_thread.load())
        << "nested parallelFor must not fan out to other workers";
}

TEST(ThreadPoolTest, CallerParticipatesAndThreadCountIsTotal)
{
    EXPECT_EQ(ThreadPool(1).threadCount(), 1u);
    EXPECT_EQ(ThreadPool(4).threadCount(), 4u);

    // With a 1-thread pool everything runs on the caller.
    ThreadPool solo(1);
    std::thread::id me = std::this_thread::get_id();
    bool on_caller = true;
    solo.parallelFor(0, 32, 4, [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() != me)
            on_caller = false;
    });
    EXPECT_TRUE(on_caller);
}

TEST(ThreadPoolTest, ConcurrentCallersAreSerializedSafely)
{
    ThreadPool pool(4);
    std::atomic<long> total{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t)
        callers.emplace_back([&] {
            for (int iter = 0; iter < 50; ++iter)
                pool.parallelFor(0, 100, 9,
                                 [&](std::size_t b, std::size_t e) {
                                     total += static_cast<long>(e - b);
                                 });
        });
    for (auto &c : callers)
        c.join();
    EXPECT_EQ(total.load(), 4L * 50L * 100L);
}

TEST(ThreadPoolTest, ShutdownUnderLoadJoinsCleanly)
{
    // Construct/demolish pools while caller threads drive work; the
    // destructor must drain in-flight jobs before joining workers.
    for (int round = 0; round < 20; ++round) {
        auto pool = std::make_unique<ThreadPool>(4);
        std::atomic<long> sum{0};
        std::vector<std::thread> callers;
        for (int t = 0; t < 2; ++t)
            callers.emplace_back([&] {
                for (int iter = 0; iter < 5; ++iter)
                    pool->parallelFor(0, 64, 3,
                                      [&](std::size_t b, std::size_t e) {
                                          sum += static_cast<long>(e - b);
                                      });
            });
        for (auto &c : callers)
            c.join();
        pool.reset(); // destructor races only with quiesced state
        EXPECT_EQ(sum.load(), 2L * 5L * 64L);
    }
}

TEST(ThreadPoolTest, ConfiguredThreadsParsesEnv)
{
    ASSERT_EQ(setenv("LAKE_CPU_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3u);
    ASSERT_EQ(setenv("LAKE_CPU_THREADS", "1", 1), 0);
    EXPECT_EQ(ThreadPool::configuredThreads(), 1u);

    // Bad values fall back to hardware concurrency (>= 1), with a
    // warning rather than a crash.
    for (const char *bad : {"0", "-2", "abc", "4x", "99999"}) {
        ASSERT_EQ(setenv("LAKE_CPU_THREADS", bad, 1), 0);
        EXPECT_GE(ThreadPool::configuredThreads(), 1u) << bad;
    }
    ASSERT_EQ(unsetenv("LAKE_CPU_THREADS"), 0);
    EXPECT_GE(ThreadPool::configuredThreads(), 1u);
}

TEST(ThreadPoolTest, ResetGlobalResizesTheSharedPool)
{
    ThreadPool::resetGlobal(3);
    EXPECT_EQ(ThreadPool::global().threadCount(), 3u);
    ThreadPool::resetGlobal(1);
    EXPECT_EQ(ThreadPool::global().threadCount(), 1u);
    ThreadPool::resetGlobal(0); // back to the configured default
    EXPECT_GE(ThreadPool::global().threadCount(), 1u);
}

TEST(ThreadPoolDeathTest, ThrowingTaskPanicsOnSerialPath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ThreadPool pool(1);
            pool.parallelFor(0, 4, 1, [](std::size_t, std::size_t) {
                throw std::runtime_error("boom");
            });
        },
        "must not throw");
}

TEST(ThreadPoolDeathTest, ThrowingTaskPanicsOnWorkerPath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ThreadPool pool(4);
            pool.parallelFor(0, 64, 1, [](std::size_t, std::size_t) {
                throw std::runtime_error("boom");
            });
        },
        "must not throw");
}

} // namespace
} // namespace lake::base
