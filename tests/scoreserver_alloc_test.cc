// The ScoreServer's steady-state flush path allocates nothing of its
// own: a submitView -> flush -> callback cycle reuses the server's
// queues, drain and dispatch buffers, combined batch view and result
// once they have grown. Counted with a global operator new replacement
// (the obs_test / remote_pipeline_test pattern); the classifier's own
// allocations, its returned score vector included, are not the
// server's and are excluded by pausing the count inside it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "base/time.h"
#include "registry/manager.h"
#include "registry/registry.h"
#include "registry/schema.h"
#include "registry/scoreserver.h"
#include "registry/soa.h"
#include "shm/arena.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};

} // namespace

// noinline keeps GCC from pairing an inlined free() with the new
// expression at call sites and warning about mismatched allocators.
__attribute__((noinline)) void *
operator new(std::size_t n)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

__attribute__((noinline)) void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

__attribute__((noinline)) void
operator delete(void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

__attribute__((noinline)) void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace lake::registry {
namespace {

/** Stops counting for its scope (the classifier's own work). */
class CountPause
{
  public:
    CountPause() : was_(g_count_allocs.exchange(false)) {}
    ~CountPause() { g_count_allocs.store(was_); }

  private:
    bool was_;
};

TEST(ScoreServerAllocTest, SteadyStateViewFlushAllocatesNothing)
{
    Clock clock;
    shm::ShmArena arena(8ull << 20);
    RegistryManager mgr(clock, &arena);

    Classifier fn = [](const FvBatchView &v) {
        CountPause pause;
        std::vector<float> out;
        for (std::size_t r = 0; r < v.size(); ++r)
            out.push_back(static_cast<float>(v.value(r, 0)));
        return out;
    };
    Schema s;
    s.add("x");
    // Two registries of one subsystem: a flush coalesces both, and each
    // one's consecutive slots merge into one block of the batch view.
    const char *names[] = {"sda1", "sdb1"};
    for (const char *name : names) {
        ASSERT_TRUE(mgr.createRegistry(name, "sys", s, 64).isOk());
        ASSERT_TRUE(
            mgr.find(name, "sys")->registerClassifier(Arch::Cpu, fn).isOk());
    }
    ScoringConfig cfg;
    cfg.enabled = true;
    cfg.max_batch = 64; // flushes only when the test calls flushAll
    ASSERT_TRUE(mgr.enableScoring(cfg).isOk());
    ScoreServer &server = *mgr.scorer();

    std::size_t scored = 0;
    // One captured reference: std::function keeps it inline.
    auto cb = [&scored](const ScoreResult &r) { scored += r.scores.size(); };

    constexpr std::size_t kViews = 6;
    std::uint64_t value = 0;
    auto round = [&](bool counted) {
        // The views are the caller's: pinned before counting starts.
        std::vector<FvBatchView> views;
        views.reserve(kViews);
        for (std::size_t i = 0; i < kViews; ++i) {
            Registry *reg = mgr.find(names[i % 2], "sys");
            reg->beginFvCapture(clock.now());
            reg->captureFeatureCol(0, ++value);
            reg->commitFvCapture(clock.now());
            views.push_back(reg->tailView(1));
        }
        g_allocs.store(0);
        g_count_allocs.store(counted);
        for (std::size_t i = 0; i < kViews; ++i)
            ASSERT_TRUE(server
                            .submitView(names[i % 2], "sys",
                                        std::move(views[i]), 0, cb)
                            .isOk());
        ASSERT_EQ(server.flushAll(clock.now()), 1u);
        g_count_allocs.store(false);
        clock.advance(1_us);
    };

    // Warm-up: the buffers grow to the batch.
    for (int i = 0; i < 3; ++i)
        round(false);
    for (int i = 0; i < 5; ++i) {
        round(true);
        EXPECT_EQ(g_allocs.load(), 0u) << "counted round " << i;
    }
    EXPECT_EQ(scored, 8 * kViews);
    EXPECT_EQ(server.pending(), 0u);
}

} // namespace
} // namespace lake::registry
