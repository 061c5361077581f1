// Tests for the multi-tenant serving front end (DESIGN.md §11): the
// token-bucket admission filter, trace parsing, bounded per-tenant
// queues with shed-on-pressure, DRR fair dispatch, open-loop replay
// determinism, teardown with in-flight tenants, and the thread-safety
// of the offer()/pump() surface.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "base/time.h"
#include "registry/manager.h"
#include "serve/serve.h"
#include "serve/tenant.h"
#include "serve/traffic.h"

using namespace lake;

namespace {

constexpr const char *kSys = "serve_slo";

/** Writes @p body to a fresh temp file and returns its path. */
std::string
tempTrace(const std::string &tag, const std::string &body)
{
    std::string path =
        ::testing::TempDir() + "serve_trace_" + tag + ".txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return path;
}

/** A manager with @p shards registries and a trivial CPU classifier
 *  that charges @p cost virtual ns per batch to the shared clock. */
struct Harness
{
    Clock clock;
    registry::RegistryManager mgr{clock};
    std::vector<std::string> shards;

    explicit Harness(std::size_t nshards = 2, Nanos cost = 0,
                     registry::ScoringConfig scfg = {})
    {
        registry::Classifier classify =
            [this, cost](const registry::FvBatchView &v) {
                if (cost > 0)
                    clock.advance(cost);
                return std::vector<float>(v.size(), 1.0f);
            };
        registry::Schema schema;
        schema.add("tenant");
        for (std::size_t i = 0; i < nshards; ++i) {
            shards.push_back("shard" + std::to_string(i));
            EXPECT_TRUE(
                mgr.createRegistry(shards.back(), kSys, schema, 4).isOk());
            EXPECT_TRUE(mgr.find(shards.back(), kSys)
                            ->registerClassifier(registry::Arch::Cpu,
                                                 classify)
                            .isOk());
        }
        scfg.enabled = true;
        EXPECT_TRUE(mgr.enableScoring(scfg).isOk());
    }
};

// ---- TokenBucket ---------------------------------------------------

TEST(TokenBucketTest, BurstThenSustainedRate)
{
    serve::TokenBucket b(1000.0, 4.0); // 1 token/ms, 4-token burst
    // The burst drains at once...
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(b.tryAcquire(0));
    EXPECT_FALSE(b.tryAcquire(0));
    // ...then refill paces admission at the configured rate.
    EXPECT_FALSE(b.tryAcquire(500_us));
    EXPECT_TRUE(b.tryAcquire(1_ms));
    EXPECT_FALSE(b.tryAcquire(1_ms));
    EXPECT_TRUE(b.tryAcquire(2_ms));
}

TEST(TokenBucketTest, RefillCapsAtBurst)
{
    serve::TokenBucket b(1000.0, 4.0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(b.tryAcquire(0));
    // A long idle gap earns at most `burst` tokens, not rate * gap.
    EXPECT_DOUBLE_EQ(b.available(10_s), 4.0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(b.tryAcquire(10_s));
    EXPECT_FALSE(b.tryAcquire(10_s));
}

TEST(TokenBucketTest, BackwardsProbeDoesNotWrapRefill)
{
    serve::TokenBucket b(1000.0, 4.0);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(b.tryAcquire(1_ms));
    // A probe earlier than the last refill must not treat the
    // unsigned gap as ~2^64 ns of refill credit: the bucket stays
    // empty instead of snapping back to full burst.
    EXPECT_FALSE(b.tryAcquire(500_us));
    EXPECT_DOUBLE_EQ(b.available(500_us), 0.0);
    // Time resuming forward refills from the clamped point.
    EXPECT_TRUE(b.tryAcquire(2_ms));
}

// ---- trace parsing -------------------------------------------------

TEST(ServeTraceTest, ParsesTimesCommentsAndBlankLines)
{
    std::string path = tempTrace("ok", "# demo trace\n"
                                       "\n"
                                       "0 0\n"
                                       "  100 1  \n"
                                       "100 0\n"
                                       "250 2\n");
    std::vector<serve::TraceEntry> out;
    ASSERT_TRUE(serve::loadTrace(path, 3, out).isOk());
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].at, 0u);
    EXPECT_EQ(out[1].at, 100_us);
    EXPECT_EQ(out[1].tenant, 1u);
    EXPECT_EQ(out[2].at, 100_us);
    EXPECT_EQ(out[3].at, 250_us);
    EXPECT_EQ(out[3].tenant, 2u);
}

TEST(ServeTraceTest, RejectsMalformedInput)
{
    std::vector<serve::TraceEntry> out;
    Status st = serve::loadTrace(
        tempTrace("garbled", "12 0\npotato\n"), 2, out);
    EXPECT_EQ(st.code(), Code::InvalidArgument);
    EXPECT_TRUE(out.empty());

    st = serve::loadTrace(tempTrace("no_tenant", "12\n"), 2, out);
    EXPECT_EQ(st.code(), Code::InvalidArgument);

    st = serve::loadTrace(tempTrace("trailing", "12 0 extra\n"), 2, out);
    EXPECT_EQ(st.code(), Code::InvalidArgument);

    st = serve::loadTrace(
        tempTrace("backwards", "100 0\n50 1\n"), 2, out);
    EXPECT_EQ(st.code(), Code::InvalidArgument);

    st = serve::loadTrace(tempTrace("tenant_oob", "10 5\n"), 2, out);
    EXPECT_EQ(st.code(), Code::InvalidArgument);

    st = serve::loadTrace("/nonexistent/serve.trace", 2, out);
    EXPECT_EQ(st.code(), Code::NotFound);
}

// ---- admission + bounded queues ------------------------------------

TEST(TrafficGeneratorTest, BucketRejectsOverRateArrivals)
{
    Harness h;
    serve::ServeConfig cfg;
    cfg.tenants = 1;
    cfg.bucket_rate = 1000.0;
    cfg.bucket_burst = 2.0;
    cfg.queue_capacity = 64;
    serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);

    EXPECT_TRUE(gen.offer(0, 0).isOk());
    EXPECT_TRUE(gen.offer(0, 0).isOk());
    Status st = gen.offer(0, 0); // burst exhausted
    EXPECT_EQ(st.code(), Code::ResourceExhausted);
    EXPECT_TRUE(gen.offer(0, 1_ms).isOk()); // refilled

    const serve::Tenant &t = gen.tenantStates()[0];
    EXPECT_EQ(t.arrivals, 4u);
    EXPECT_EQ(t.admits, 3u);
    EXPECT_EQ(t.bucket_rejects, 1u);
}

TEST(TrafficGeneratorTest, FullQueueShedsOldest)
{
    Harness h;
    serve::ServeConfig cfg;
    cfg.tenants = 1;
    cfg.bucket_rate = 1e9; // admission never the limiter here
    cfg.bucket_burst = 1e9;
    cfg.queue_capacity = 3;
    cfg.shed_oldest = true;
    serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);

    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(gen.offer(0, static_cast<Nanos>(i)).isOk());
    const serve::Tenant &t = gen.tenantStates()[0];
    EXPECT_EQ(t.queue_sheds, 2u);
    ASSERT_EQ(t.queue.size(), 3u);
    // The two *oldest* arrivals were dropped; the queue holds 2,3,4.
    EXPECT_EQ(t.queue.front().arrival, 2u);
    EXPECT_EQ(t.queue.back().arrival, 4u);
}

TEST(TrafficGeneratorTest, FullQueueRejectsNewWhenShedDisabled)
{
    Harness h;
    serve::ServeConfig cfg;
    cfg.tenants = 1;
    cfg.bucket_rate = 1e9;
    cfg.bucket_burst = 1e9;
    cfg.queue_capacity = 2;
    cfg.shed_oldest = false;
    serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);

    EXPECT_TRUE(gen.offer(0, 0).isOk());
    EXPECT_TRUE(gen.offer(0, 1).isOk());
    EXPECT_EQ(gen.offer(0, 2).code(), Code::ResourceExhausted);
    const serve::Tenant &t = gen.tenantStates()[0];
    ASSERT_EQ(t.queue.size(), 2u);
    EXPECT_EQ(t.queue.front().arrival, 0u); // oldest preserved
    EXPECT_EQ(t.queue_sheds, 1u);
}

// ---- dispatch ------------------------------------------------------

TEST(TrafficGeneratorTest, PumpDispatchesAndCompletes)
{
    Harness h;
    serve::ServeConfig cfg;
    cfg.tenants = 4;
    cfg.bucket_rate = 1e9;
    cfg.bucket_burst = 1e9;
    serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);

    for (std::size_t t = 0; t < 4; ++t)
        ASSERT_TRUE(gen.offer(t, 10_us).isOk());
    h.clock.advanceTo(20_us);
    EXPECT_EQ(gen.pump(20_us), 4u);
    // Deadlines have not expired yet; force the flush.
    h.mgr.scorer()->flushAll(1_ms);

    serve::ServeSummary s = gen.summary(1_ms);
    EXPECT_EQ(s.admits, 4u);
    EXPECT_EQ(s.dispatched, 4u);
    EXPECT_EQ(s.completions, 4u);
    EXPECT_EQ(s.failures, 0u);
    EXPECT_EQ(s.queued_residual, 0u);
    // Latency is arrival-to-scored: at least the queue wait to 20us.
    EXPECT_GE(s.p50_us, 10.0);
}

TEST(TrafficGeneratorTest, DrrSharesDispatchFairlyUnderSkew)
{
    serve::ServeConfig cfg;
    cfg.tenants = 2;
    cfg.bucket_rate = 1e9;
    cfg.bucket_burst = 1e9;
    cfg.queue_capacity = 1000;
    cfg.drr_quantum = 2;
    // Huge ScoreServer appetite so its own backpressure never hides
    // the DRR behaviour under test.
    registry::ScoringConfig scfg;
    scfg.queue_capacity = 4096;
    scfg.max_batch = 4096;
    Harness big(2, 0, scfg);
    serve::TrafficGenerator gen(big.mgr, big.clock, cfg, kSys,
                                big.shards);

    // Tenant 0 is hot (100 queued), tenant 1 light (10 queued).
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(gen.offer(0, 0).isOk());
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(gen.offer(1, 0).isOk());

    // Three rounds of quantum 2: each tenant may dispatch at most 6 —
    // the hot tenant cannot convert its backlog into extra service.
    std::size_t total = 0;
    for (int round = 0; round < 3; ++round)
        total += gen.pump(static_cast<Nanos>(round) * 10_us);
    EXPECT_EQ(total, 12u);
    EXPECT_EQ(gen.tenantStates()[0].dispatched, 6u);
    EXPECT_EQ(gen.tenantStates()[1].dispatched, 6u);
    EXPECT_EQ(gen.tenantStates()[0].queue.size(), 94u);
    EXPECT_EQ(gen.tenantStates()[1].queue.size(), 4u);
}

TEST(TrafficGeneratorTest, OpenLoopRunIsSeedDeterministic)
{
    serve::ServeConfig cfg;
    cfg.tenants = 8;
    cfg.rate_rps = 20000.0;
    cfg.bucket_rate = 15000.0;
    cfg.bucket_burst = 4.0;
    cfg.queue_capacity = 16;
    cfg.seed = 1234;

    auto once = [&cfg]() {
        Harness h(2, 500_ns);
        serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);
        gen.run(20_ms);
        return gen.summary(20_ms);
    };
    serve::ServeSummary a = once();
    serve::ServeSummary b = once();
    EXPECT_GT(a.arrivals, 0u);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admits, b.admits);
    EXPECT_EQ(a.bucket_rejects, b.bucket_rejects);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
    // Conservation: every arrival is accounted for exactly once.
    EXPECT_EQ(a.arrivals,
              a.admits + a.bucket_rejects +
                  (cfg.shed_oldest ? 0 : a.queue_sheds));
    EXPECT_EQ(a.admits, a.completions + a.failures + a.queue_sheds +
                            a.queued_residual);
}

TEST(TrafficGeneratorTest, TraceDrivenRunFollowsSchedule)
{
    std::string path = tempTrace("run", "0 0\n"
                                        "100 1\n"
                                        "200 0\n"
                                        "300 1\n"
                                        "400 0\n");
    Harness h;
    serve::ServeConfig cfg;
    cfg.tenants = 2;
    cfg.bucket_rate = 1e6;
    cfg.bucket_burst = 8.0;
    cfg.trace_path = path;
    serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);
    gen.run(1_ms);

    serve::ServeSummary s = gen.summary(1_ms);
    EXPECT_EQ(s.arrivals, 5u);
    EXPECT_EQ(s.admits, 5u);
    EXPECT_EQ(s.completions, 5u);
    EXPECT_EQ(gen.tenantStates()[0].arrivals, 3u);
    EXPECT_EQ(gen.tenantStates()[1].arrivals, 2u);
}

// ---- teardown ------------------------------------------------------

TEST(TrafficGeneratorTest, RegistryTeardownFailsInFlightTenants)
{
    Harness h;
    serve::ServeConfig cfg;
    cfg.tenants = 2; // tenant 0 -> shard0, tenant 1 -> shard1
    cfg.bucket_rate = 1e9;
    cfg.bucket_burst = 1e9;
    serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);

    ASSERT_TRUE(gen.offer(0, 0).isOk());
    ASSERT_TRUE(gen.offer(1, 0).isOk());
    EXPECT_EQ(gen.pump(10_us), 2u);

    // Tear shard0 down with tenant 0's request queued inside the
    // ScoreServer: its callback must observe the failure...
    ASSERT_TRUE(h.mgr.destroyRegistry(h.shards[0], kSys).isOk());
    EXPECT_EQ(gen.tenantStates()[0].failures, 1u);
    EXPECT_EQ(gen.tenantStates()[0].completions, 0u);

    // ...while tenant 1 still completes, and post-teardown dispatch
    // for tenant 0 is counted as lost rather than crashing.
    ASSERT_TRUE(gen.offer(0, 20_us).isOk());
    gen.pump(30_us);
    h.mgr.scorer()->flushAll(1_ms);
    EXPECT_EQ(gen.tenantStates()[0].failures, 2u);
    EXPECT_EQ(gen.tenantStates()[1].completions, 1u);
}

TEST(TrafficGeneratorTest, DestructionCompletesInFlightCallbacks)
{
    Harness h;
    {
        serve::ServeConfig cfg;
        cfg.tenants = 4;
        cfg.bucket_rate = 1e9;
        cfg.bucket_burst = 1e9;
        serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys,
                                    h.shards);
        for (std::size_t t = 0; t < 4; ++t)
            ASSERT_TRUE(gen.offer(t, 0).isOk());
        // Dispatch below max_batch and before any deadline poll: the
        // requests sit inside the ScoreServer with callbacks that
        // capture the generator.
        EXPECT_EQ(gen.pump(10_us), 4u);
        EXPECT_GT(h.mgr.scorer()->pending(), 0u);
        // The destructor must flush them while the generator is still
        // alive — pre-fix the ScoreServer's own destructor fired the
        // callbacks into the freed generator (TSan: heap-use-after-
        // free under RegistryManager teardown).
        EXPECT_EQ(gen.tenantStates()[0].completions, 0u);
    }
    EXPECT_EQ(h.mgr.scorer()->pending(), 0u);
}

// ---- threading (the sanitizer suite drives this under TSan) --------

TEST(TrafficGeneratorTest, ConcurrentOfferAndPumpAreSafe)
{
    registry::ScoringConfig scfg;
    scfg.queue_capacity = 1024;
    scfg.max_batch = 64;
    Harness h(4, 0, scfg);
    serve::ServeConfig cfg;
    cfg.tenants = 16;
    cfg.bucket_rate = 1e9;
    cfg.bucket_burst = 1e9;
    cfg.queue_capacity = 256;
    serve::TrafficGenerator gen(h.mgr, h.clock, cfg, kSys, h.shards);

    constexpr int kPerThread = 500;
    std::atomic<bool> go{false};
    std::vector<std::thread> offerers;
    for (int w = 0; w < 3; ++w) {
        offerers.emplace_back([&gen, &go, w] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i)
                gen.offer((static_cast<std::size_t>(w) * kPerThread + i) %
                              16,
                          static_cast<Nanos>(i) * 1_us);
        });
    }
    std::thread pumper([&gen, &go] {
        while (!go.load())
            std::this_thread::yield();
        for (int i = 0; i < 200; ++i)
            gen.pump(static_cast<Nanos>(i) * 10_us);
    });
    go.store(true);
    for (auto &th : offerers)
        th.join();
    pumper.join();

    // Quiesce single-threaded, then check conservation.
    for (int i = 0; i < 64; ++i)
        gen.pump(10_ms + static_cast<Nanos>(i) * 100_us);
    h.mgr.scorer()->flushAll(1_s);
    serve::ServeSummary s = gen.summary(1_s);
    EXPECT_EQ(s.arrivals, 3u * kPerThread);
    EXPECT_EQ(s.arrivals, s.admits + s.bucket_rejects);
    EXPECT_EQ(s.admits, s.completions + s.failures + s.queue_sheds +
                            s.queued_residual);
    EXPECT_EQ(s.queued_residual, 0u);
}

} // namespace
