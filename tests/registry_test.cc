// Tests for the in-kernel feature registry (Table 1 semantics) and the
// async batched scoring service (DESIGN.md §7).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

#include "base/time.h"
#include "registry/manager.h"
#include "registry/registry.h"
#include "registry/schema.h"
#include "registry/scoreserver.h"

namespace lake::registry {
namespace {

TEST(SchemaTest, DeclarationAndLookup)
{
    Schema s;
    s.add("pend_ios").add("io_lat", 4, 4);
    EXPECT_EQ(s.featureCount(), 2u);
    EXPECT_TRUE(s.hasHistory());

    const FeatureSpec *spec = s.find(featureKey("io_lat"));
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(spec->size, 4u);
    EXPECT_EQ(spec->entries, 4u);
    EXPECT_EQ(s.find(featureKey("nope")), nullptr);
}

TEST(SchemaTest, KeysAreStableAndNonZero)
{
    EXPECT_EQ(featureKey("pend_ios"), featureKey("pend_ios"));
    EXPECT_NE(featureKey("pend_ios"), featureKey("io_lat"));
    EXPECT_NE(featureKey(""), 0u);
}

class RegistryTest : public ::testing::Test
{
  protected:
    RegistryTest()
        : reg_("sda1", "bio_latency_prediction",
               Schema().add("pend_ios").add("lat", 8, 3), 8)
    {
    }

    static Schema
    makeSchema()
    {
        Schema s;
        s.add("pend_ios");
        s.add("lat", 8, 3);
        return s;
    }

    Registry reg_;
};

TEST_F(RegistryTest, CaptureCommitRead)
{
    reg_.beginFvCapture(100);
    reg_.captureFeature("pend_ios", 5);
    reg_.captureFeature("lat", 250);
    reg_.commitFvCapture(110);

    auto fvs = reg_.getFeatures();
    ASSERT_EQ(fvs.size(), 1u);
    EXPECT_EQ(fvs[0].ts_begin, 100u);
    EXPECT_EQ(fvs[0].ts_end, 110u);
    EXPECT_EQ(fvs[0].get("pend_ios"), 5u);
    EXPECT_EQ(fvs[0].get("lat"), 250u);
}

TEST_F(RegistryTest, IncrementalCountersPersistAcrossCommits)
{
    reg_.beginFvCapture(0);
    reg_.captureFeatureIncr("pend_ios", 1);
    reg_.captureFeatureIncr("pend_ios", 1);
    reg_.commitFvCapture(10);
    reg_.captureFeatureIncr("pend_ios", -1);
    reg_.commitFvCapture(20);

    auto fvs = reg_.getFeatures();
    ASSERT_EQ(fvs.size(), 2u);
    EXPECT_EQ(fvs[0].get("pend_ios"), 2u);
    EXPECT_EQ(fvs[1].get("pend_ios"), 1u);
}

TEST_F(RegistryTest, HistoryEntriesInherit)
{
    reg_.beginFvCapture(0);
    reg_.captureFeature("lat", 100);
    reg_.commitFvCapture(1);
    reg_.captureFeature("lat", 200);
    reg_.commitFvCapture(2);
    reg_.captureFeature("lat", 300);
    reg_.commitFvCapture(3);

    auto fvs = reg_.getFeatures();
    ASSERT_EQ(fvs.size(), 3u);
    // §5.2: index 0 most recent, 1..N-1 from previous vectors.
    const auto &latest = fvs[2].values.at(featureKey("lat"));
    ASSERT_EQ(latest.size(), 3u);
    EXPECT_EQ(latest[0], 300u);
    EXPECT_EQ(latest[1], 200u);
    EXPECT_EQ(latest[2], 100u);
}

TEST_F(RegistryTest, TimestampQueryFindsContainingVector)
{
    reg_.beginFvCapture(100);
    reg_.captureFeature("pend_ios", 1);
    reg_.commitFvCapture(200);
    reg_.captureFeature("pend_ios", 2);
    reg_.commitFvCapture(300);

    auto hit = reg_.getFeatures(150);
    ASSERT_EQ(hit.size(), 1u);
    EXPECT_EQ(hit[0].get("pend_ios"), 1u);

    auto hit2 = reg_.getFeatures(250);
    ASSERT_EQ(hit2.size(), 1u);
    EXPECT_EQ(hit2[0].get("pend_ios"), 2u);

    EXPECT_TRUE(reg_.getFeatures(99).empty());
}

TEST_F(RegistryTest, TruncatePreservesNewestWithHistory)
{
    reg_.beginFvCapture(0);
    for (int i = 0; i < 4; ++i) {
        reg_.captureFeature("lat", 100 + i);
        reg_.commitFvCapture(10 * (i + 1));
    }
    ASSERT_EQ(reg_.pendingCount(), 4u);

    // §5.4: with history features, the newest vector survives so the
    // next commit can populate its historical entries.
    reg_.truncateFeatures();
    ASSERT_EQ(reg_.pendingCount(), 1u);
    EXPECT_EQ(reg_.getFeatures()[0].get("lat"), 103u);

    // And history still chains through the survivor.
    reg_.captureFeature("lat", 200);
    reg_.commitFvCapture(100);
    auto fvs = reg_.getFeatures();
    const auto &hist = fvs.back().values.at(featureKey("lat"));
    EXPECT_EQ(hist[0], 200u);
    EXPECT_EQ(hist[1], 103u);
}

TEST(RegistryNoHistoryTest, TruncateDropsEverything)
{
    Registry reg("r", "s", Schema().add("x"), 4);
    reg.beginFvCapture(0);
    reg.captureFeature("x", 1);
    reg.commitFvCapture(1);
    reg.truncateFeatures();
    EXPECT_EQ(reg.pendingCount(), 0u);
}

TEST(RegistryNoHistoryTest, TruncateByTimestamp)
{
    Registry reg("r", "s", Schema().add("x"), 8);
    reg.beginFvCapture(0);
    for (int i = 1; i <= 4; ++i) {
        reg.captureFeature("x", i);
        reg.commitFvCapture(i * 10);
    }
    reg.truncateFeatures(Nanos{25});
    auto fvs = reg.getFeatures();
    ASSERT_EQ(fvs.size(), 2u); // ts_end 30 and 40 survive
    EXPECT_EQ(fvs[0].get("x"), 3u);
}

TEST(RegistryRingTest, WindowOverwritesOldest)
{
    Registry reg("r", "s", Schema().add("x"), 2);
    reg.beginFvCapture(0);
    for (int i = 1; i <= 5; ++i) {
        reg.captureFeature("x", i);
        reg.commitFvCapture(i);
    }
    auto fvs = reg.getFeatures();
    ASSERT_EQ(fvs.size(), 2u);
    EXPECT_EQ(fvs[0].get("x"), 4u);
    EXPECT_EQ(fvs[1].get("x"), 5u);
}

TEST(RegistryScoreTest, DispatchesByPolicy)
{
    Registry reg("r", "s", Schema().add("x"), 8);
    int cpu_calls = 0, gpu_calls = 0;
    reg.registerClassifier(Arch::Cpu, [&](const FvBatchView &v) {
        ++cpu_calls;
        return std::vector<float>(v.size(), 0.0f);
    });
    reg.registerClassifier(Arch::Gpu, [&](const FvBatchView &v) {
        ++gpu_calls;
        return std::vector<float>(v.size(), 1.0f);
    });
    reg.registerPolicy(std::make_unique<policy::BatchThresholdPolicy>(4));

    std::vector<FeatureVector> small(2), big(8);
    reg.scoreFeatures(small, 0);
    EXPECT_EQ(cpu_calls, 1);
    EXPECT_EQ(reg.lastEngine(), policy::Engine::Cpu);
    reg.scoreFeatures(big, 0);
    EXPECT_EQ(gpu_calls, 1);
    EXPECT_EQ(reg.lastEngine(), policy::Engine::Gpu);
}

TEST(RegistryScoreTest, FallsBackToCpuWithoutGpuClassifier)
{
    Registry reg("r", "s", Schema().add("x"), 8);
    int cpu_calls = 0;
    reg.registerClassifier(Arch::Cpu, [&](const FvBatchView &v) {
        ++cpu_calls;
        return std::vector<float>(v.size(), 0.0f);
    });
    reg.registerPolicy(std::make_unique<policy::AlwaysGpuPolicy>());
    std::vector<FeatureVector> fvs(4);
    reg.scoreFeatures(fvs, 0);
    EXPECT_EQ(cpu_calls, 1);
    EXPECT_EQ(reg.lastEngine(), policy::Engine::Cpu);
}

TEST(RegistryScoreTest, EmptyBatchIsNoop)
{
    Registry reg("r", "s", Schema().add("x"), 8);
    EXPECT_TRUE(reg.scoreFeatures(std::vector<FeatureVector>{}, 0).empty());
}

TEST(RegistryScoreTest, XpuClassifierIsRejected)
{
    // Regression: Arch::Xpu used to land in a write-only member that
    // no scoreFeatures dispatch could ever reach.
    Registry reg("r", "s", Schema().add("x"), 8);
    Status st = reg.registerClassifier(Arch::Xpu, [](const FvBatchView &v) {
        return std::vector<float>(v.size(), 0.0f);
    });
    EXPECT_EQ(st.code(), Code::InvalidArgument);
    EXPECT_FALSE(reg.hasClassifier(Arch::Xpu));
    EXPECT_FALSE(reg.hasClassifier(Arch::Cpu));

    EXPECT_TRUE(reg.registerClassifier(Arch::Cpu,
                                       [](const FvBatchView &v) {
                                           return std::vector<float>(
                                               v.size(), 0.0f);
                                       })
                    .isOk());
    EXPECT_TRUE(reg.hasClassifier(Arch::Cpu));
    EXPECT_FALSE(reg.hasClassifier(Arch::Gpu));
}

TEST(RegistryCaptureTest, ForwardRestampKeepsFeatures)
{
    // begin-while-open is a forward re-stamp: the window start moves,
    // captured features survive.
    Registry reg("r", "s", Schema().add("x"), 8);
    reg.beginFvCapture(10);
    reg.captureFeature("x", 7);
    EXPECT_TRUE(reg.captureOpen());
    reg.beginFvCapture(20);
    reg.commitFvCapture(30);

    auto fvs = reg.getFeatures();
    ASSERT_EQ(fvs.size(), 1u);
    EXPECT_EQ(fvs[0].ts_begin, 20u);
    EXPECT_EQ(fvs[0].ts_end, 30u);
    EXPECT_EQ(fvs[0].get("x"), 7u);
}

TEST(RegistryCaptureDeathTest, RewindingRestampPanics)
{
    // Regression: a begin while open used to silently rewind
    // open_begin_, fabricating a window predating its own features.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Registry reg("r", "s", Schema().add("x"), 8);
    reg.beginFvCapture(100);
    EXPECT_DEATH(reg.beginFvCapture(50), "rewinds open capture");
}

TEST(RegistryConcurrencyTest, CaptureFromManyThreads)
{
    // §5.3: capture calls may come from arbitrary kernel threads while
    // a capture is open.
    Registry reg("r", "s", Schema().add("ctr").add("x"), 4);
    reg.beginFvCapture(0);
    constexpr int kThreads = 8, kIters = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < kIters; ++i)
                reg.captureFeatureIncr("ctr", 1);
        });
    }
    for (auto &t : threads)
        t.join();
    reg.commitFvCapture(1);
    EXPECT_EQ(reg.getFeatures()[0].get("ctr"),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(RegistryConcurrencyTest, CaptureWhileCommit)
{
    // Capture threads keep hammering the open window while the owner
    // commits vector after vector; incremental counters must never
    // lose an increment across the commit boundary.
    Registry reg("r", "s", Schema().add("ctr"), 4);
    reg.beginFvCapture(0);

    constexpr int kThreads = 4;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> incrs{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            std::uint64_t mine = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                reg.captureFeatureIncr("ctr", 1);
                ++mine;
            }
            incrs.fetch_add(mine);
        });
    }
    for (Nanos ts = 1; ts <= 200; ++ts)
        reg.commitFvCapture(ts);
    stop.store(true);
    for (auto &t : threads)
        t.join();
    reg.commitFvCapture(1000);

    // The final committed vector holds every increment ever made: the
    // counter is incrementally maintained and persists across commits.
    auto fvs = reg.getFeatures();
    ASSERT_FALSE(fvs.empty());
    EXPECT_EQ(fvs.back().get("ctr"), incrs.load());
}

/** Fixture wiring two same-subsystem registries into a ScoreServer. */
class ScoreServerTest : public ::testing::Test
{
  protected:
    ScoreServerTest() : mgr_(clock_) {}

    /** Creates a registry with an echo classifier (score = x). */
    void
    addRegistry(const std::string &name, const std::string &sys,
                std::vector<std::size_t> *batches)
    {
        ASSERT_TRUE(
            mgr_.createRegistry(name, sys, Schema().add("x"), 64).isOk());
        Registry *reg = mgr_.find(name, sys);
        ASSERT_TRUE(reg->registerClassifier(
                           Arch::Cpu,
                           [batches](const FvBatchView &v) {
                               if (batches)
                                   batches->push_back(v.size());
                               std::vector<float> out;
                               for (std::size_t r = 0; r < v.size(); ++r)
                                   out.push_back(static_cast<float>(
                                       v.get(r, featureKey("x"))));
                               return out;
                           })
                        .isOk());
    }

    /** One-feature vectors carrying the given x values. */
    static std::vector<FeatureVector>
    fvsWith(std::initializer_list<std::uint64_t> xs)
    {
        std::vector<FeatureVector> out;
        for (std::uint64_t x : xs) {
            FeatureVector fv;
            fv.values[featureKey("x")] = {x};
            out.push_back(std::move(fv));
        }
        return out;
    }

    Clock clock_;
    RegistryManager mgr_;
};

TEST_F(ScoreServerTest, SyncInlineFallbackWhenDisabled)
{
    addRegistry("a", "blk", nullptr);
    ASSERT_EQ(mgr_.scorer(), nullptr);

    int fired = 0;
    Status st = score_features_async(
        mgr_, "a", "blk", fvsWith({4, 9}), 0, [&](const ScoreResult &r) {
            ++fired;
            EXPECT_TRUE(r.status.isOk());
            ASSERT_EQ(r.scores.size(), 2u);
            EXPECT_FLOAT_EQ(r.scores[0], 4.0f);
            EXPECT_FLOAT_EQ(r.scores[1], 9.0f);
            EXPECT_EQ(r.batch, 2u);
        });
    EXPECT_TRUE(st.isOk());
    // Disabled mode degrades to synchronous inline scoring.
    EXPECT_EQ(fired, 1);
}

TEST_F(ScoreServerTest, CoalescesAcrossRegistriesAtMaxBatch)
{
    std::vector<std::size_t> a_batches, b_batches;
    addRegistry("a", "blk", &a_batches);
    addRegistry("b", "blk", &b_batches);

    ScoringConfig cfg;
    cfg.max_batch = 4;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();
    ASSERT_NE(s, nullptr);

    int fired_a = 0, fired_b = 0;
    ASSERT_TRUE(s->submit("b", "blk", fvsWith({30, 40}), 0,
                          [&](const ScoreResult &r) {
                              ++fired_b;
                              ASSERT_EQ(r.scores.size(), 2u);
                              EXPECT_FLOAT_EQ(r.scores[0], 30.0f);
                              EXPECT_FLOAT_EQ(r.scores[1], 40.0f);
                              EXPECT_EQ(r.batch, 4u);
                          })
                    .isOk());
    EXPECT_EQ(fired_b, 0); // below max_batch: queued, not scored
    EXPECT_EQ(s->pending(), 2u);

    // Reaching max_batch flushes inline on the submitting call; the
    // coalesced batch dispatches through the first name-ordered
    // registry ("a") and scatters per-request score slices back.
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({10, 20}), 0,
                          [&](const ScoreResult &r) {
                              ++fired_a;
                              ASSERT_EQ(r.scores.size(), 2u);
                              EXPECT_FLOAT_EQ(r.scores[0], 10.0f);
                              EXPECT_FLOAT_EQ(r.scores[1], 20.0f);
                          })
                    .isOk());
    EXPECT_EQ(fired_a, 1);
    EXPECT_EQ(fired_b, 1);
    EXPECT_EQ(s->pending(), 0u);
    ASSERT_EQ(a_batches.size(), 1u);
    EXPECT_EQ(a_batches[0], 4u);
    EXPECT_TRUE(b_batches.empty());
    EXPECT_EQ(s->flushes(), 1u);
}

TEST_F(ScoreServerTest, DeadlineFlushViaPoll)
{
    addRegistry("a", "blk", nullptr);
    ScoringConfig cfg;
    cfg.max_batch = 32;
    cfg.max_delay = 50_us;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    int fired = 0;
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({1}), 0,
                          [&](const ScoreResult &r) {
                              ++fired;
                              EXPECT_TRUE(r.status.isOk());
                              EXPECT_EQ(r.enqueued, 0u);
                              EXPECT_GE(r.scored, 50_us);
                          })
                    .isOk());

    // Virtual time has not reached the deadline: nothing flushes.
    EXPECT_EQ(s->poll(clock_.now()), 0u);
    EXPECT_EQ(fired, 0);

    clock_.advance(50_us);
    EXPECT_EQ(s->poll(clock_.now()), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s->pending(), 0u);
}

// ISSUE 7 wrap audit: dispatch clamps its start time to the clock, so
// a flush driven with a stale (smaller-than-clock) `now` can neither
// schedule scoring before the enqueue nor wrap the scored-enqueued
// interval. The clock here is ahead of the flush caller's `now` by a
// full millisecond; every completion must still observe
// scored >= enqueued.
TEST_F(ScoreServerTest, StaleFlushNowCannotWrapQueueLatency)
{
    addRegistry("a", "blk", nullptr);
    ScoringConfig cfg;
    cfg.max_batch = 32;
    cfg.max_delay = 50_us;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    clock_.advance(1_ms);
    int fired = 0;
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({7}), 0,
                          [&](const ScoreResult &r) {
                              ++fired;
                              EXPECT_TRUE(r.status.isOk());
                              EXPECT_EQ(r.enqueued, 1_ms);
                              EXPECT_GE(r.scored, r.enqueued);
                          })
                    .isOk());

    // A poll at virtual time zero sees no due deadline (due > now) —
    // the stale `now` must not flush, let alone wrap.
    EXPECT_EQ(s->poll(0), 0u);
    EXPECT_EQ(fired, 0);

    // flushAll with the same stale `now` does dispatch; its start is
    // clamped up to the clock so the completion stamps stay ordered.
    EXPECT_EQ(s->flushAll(0), 1u);
    EXPECT_EQ(fired, 1);
}

TEST_F(ScoreServerTest, AdmissionErrors)
{
    addRegistry("a", "blk", nullptr);
    ASSERT_TRUE(
        mgr_.createRegistry("bare", "blk", Schema().add("x"), 8).isOk());
    ScoringConfig cfg;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    auto never = [](const ScoreResult &) { FAIL(); };
    EXPECT_EQ(s->submit("a", "blk", {}, 0, never).code(),
              Code::InvalidArgument);
    EXPECT_EQ(s->submit("nope", "blk", fvsWith({1}), 0, never).code(),
              Code::InvalidArgument);
    // A registry without a CPU classifier can never score a flush.
    EXPECT_EQ(s->submit("bare", "blk", fvsWith({1}), 0, never).code(),
              Code::InvalidArgument);
}

TEST_F(ScoreServerTest, BackpressureRejectsWhenFull)
{
    addRegistry("a", "blk", nullptr);
    ScoringConfig cfg;
    cfg.queue_capacity = 4;
    cfg.max_batch = 100;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    int fired = 0;
    auto count = [&](const ScoreResult &) { ++fired; };
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({1, 2, 3, 4}), 0, count)
                    .isOk());
    EXPECT_EQ(s->submit("a", "blk", fvsWith({5}), 0, count).code(),
              Code::ResourceExhausted);
    EXPECT_EQ(s->rejected(), 1u);
    EXPECT_EQ(s->pending(), 4u);

    // The queued work is intact and flushes normally.
    EXPECT_EQ(s->flushAll(clock_.now()), 1u);
    EXPECT_EQ(fired, 1);
}

TEST_F(ScoreServerTest, ShedOldestMakesRoom)
{
    addRegistry("a", "blk", nullptr);
    ScoringConfig cfg;
    cfg.queue_capacity = 4;
    cfg.max_batch = 100;
    cfg.shed_oldest = true;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    int shed_cb = 0, ok_cb = 0;
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({1, 2, 3, 4}), 0,
                          [&](const ScoreResult &r) {
                              ++shed_cb;
                              EXPECT_EQ(r.status.code(),
                                        Code::ResourceExhausted);
                              EXPECT_TRUE(r.scores.empty());
                          })
                    .isOk());
    // Over capacity: the oldest request is dropped to make room, its
    // callback observing ResourceExhausted.
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({5}), 0,
                          [&](const ScoreResult &r) {
                              ++ok_cb;
                              EXPECT_TRUE(r.status.isOk());
                              ASSERT_EQ(r.scores.size(), 1u);
                              EXPECT_FLOAT_EQ(r.scores[0], 5.0f);
                          })
                    .isOk());
    EXPECT_EQ(shed_cb, 1);
    EXPECT_EQ(s->shed(), 1u);
    EXPECT_EQ(s->pending(), 1u);

    EXPECT_EQ(s->flushAll(clock_.now()), 1u);
    EXPECT_EQ(ok_cb, 1);
}

TEST_F(ScoreServerTest, DestroyRegistryFailsPending)
{
    addRegistry("a", "blk", nullptr);
    ScoringConfig cfg;
    cfg.max_batch = 32;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    int fired = 0;
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({1, 2}), 0,
                          [&](const ScoreResult &r) {
                              ++fired;
                              EXPECT_EQ(r.status.code(),
                                        Code::Unavailable);
                              EXPECT_TRUE(r.scores.empty());
                          })
                    .isOk());
    ASSERT_TRUE(mgr_.destroyRegistry("a", "blk").isOk());
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s->pending(), 0u);
    // Nothing left to flush.
    EXPECT_EQ(s->flushAll(clock_.now()), 0u);
}

// Regression: a callback's re-entrant submit() that brings the group
// to max_batch used to re-lock the non-recursive flush mutex on the
// same thread (deadlock). It must instead defer to the flush loop
// already running, which drains the new work before returning.
TEST_F(ScoreServerTest, ReentrantSubmitFlushesInOngoingLoop)
{
    std::vector<std::size_t> batches;
    addRegistry("a", "blk", &batches);
    ScoringConfig cfg;
    cfg.max_batch = 2;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    int inner_fired = 0;
    auto inner = [&](const ScoreResult &r) {
        ++inner_fired;
        EXPECT_TRUE(r.status.isOk());
        ASSERT_EQ(r.scores.size(), 2u);
        EXPECT_FLOAT_EQ(r.scores[0], 7.0f);
        EXPECT_FLOAT_EQ(r.scores[1], 8.0f);
    };
    int outer_fired = 0;
    auto outer = [&](const ScoreResult &r) {
        ++outer_fired;
        EXPECT_TRUE(r.status.isOk());
        // Re-entrant max_batch-deep submit from inside the dispatch.
        EXPECT_TRUE(s->submit("a", "blk", fvsWith({7, 8}), 0, inner)
                        .isOk());
        // Sync scoring from a callback dispatches directly (the flush
        // lock is already held by this thread), not deadlocking.
        std::vector<float> sync =
            score_features(mgr_, "a", "blk", fvsWith({42}), r.scored);
        ASSERT_EQ(sync.size(), 1u);
        EXPECT_FLOAT_EQ(sync[0], 42.0f);
    };

    ASSERT_TRUE(s->submit("a", "blk", fvsWith({1, 2}), 0, outer).isOk());
    EXPECT_EQ(outer_fired, 1);
    EXPECT_EQ(inner_fired, 1); // drained by the same flushWhere loop
    EXPECT_EQ(s->pending(), 0u);
    EXPECT_EQ(s->flushes(), 2u);
    // Two async batches plus the inline sync dispatch.
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0], 2u);
}

// Regression: shedding the requests that established the group's
// earliest deadline used to leave the stale (earlier) deadline in
// place, so poll() flushed the survivors prematurely.
TEST_F(ScoreServerTest, ShedRecomputesGroupDeadline)
{
    addRegistry("a", "blk", nullptr);
    ScoringConfig cfg;
    cfg.queue_capacity = 2;
    cfg.max_batch = 100;
    cfg.shed_oldest = true;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    int shed_cb = 0, ok_cb = 0;
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({1}), 10_us,
                          [&](const ScoreResult &) { ++shed_cb; })
                    .isOk());
    // Over capacity: sheds the 10_us request; only the 100_us one
    // remains, so the group is due at 100_us, not 10_us.
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({2, 3}), 100_us,
                          [&](const ScoreResult &r) {
                              ++ok_cb;
                              EXPECT_TRUE(r.status.isOk());
                          })
                    .isOk());
    EXPECT_EQ(shed_cb, 1);

    clock_.advance(10_us);
    EXPECT_EQ(s->poll(clock_.now()), 0u); // stale deadline must not fire
    EXPECT_EQ(ok_cb, 0);

    clock_.advance(90_us);
    EXPECT_EQ(s->poll(clock_.now()), 1u);
    EXPECT_EQ(ok_cb, 1);
}

// Same stale-deadline shape on the teardown path: destroying the
// registry whose requests carried the group's earliest deadline must
// not leave the survivors due at the dead registry's deadline.
TEST_F(ScoreServerTest, FailPendingRecomputesGroupDeadline)
{
    addRegistry("a", "blk", nullptr);
    addRegistry("b", "blk", nullptr);
    ScoringConfig cfg;
    cfg.max_batch = 100;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    int a_cb = 0, b_cb = 0;
    ASSERT_TRUE(s->submit("a", "blk", fvsWith({1}), 10_us,
                          [&](const ScoreResult &r) {
                              ++a_cb;
                              EXPECT_EQ(r.status.code(),
                                        Code::Unavailable);
                          })
                    .isOk());
    ASSERT_TRUE(s->submit("b", "blk", fvsWith({2}), 100_us,
                          [&](const ScoreResult &) { ++b_cb; })
                    .isOk());
    ASSERT_TRUE(mgr_.destroyRegistry("a", "blk").isOk());
    EXPECT_EQ(a_cb, 1);

    clock_.advance(10_us);
    EXPECT_EQ(s->poll(clock_.now()), 0u);
    EXPECT_EQ(b_cb, 0);
    clock_.advance(90_us);
    EXPECT_EQ(s->poll(clock_.now()), 1u);
    EXPECT_EQ(b_cb, 1);
}

// Regression (TSan): destroyRegistry() racing submit() used to read
// the registry table unsynchronized and could free a registry that a
// submit had just resolved, leaving a dangling pointer in the queue.
// Destroy is now atomic with submission: every Ok-admitted request's
// callback fires exactly once (scored or Unavailable), never on a
// freed registry.
TEST_F(ScoreServerTest, DestroyRacesSubmitSafely)
{
    // Classifier registration is a caller-serialized setup operation,
    // so each round wires its registry before the threads start; the
    // race under test is destroy-vs-submit, exercised once per round.
    constexpr int kRounds = 40, kSubmitters = 3, kIters = 32;
    for (int round = 0; round < kRounds; ++round) {
        RegistryManager mgr(clock_);
        ASSERT_TRUE(
            mgr.createRegistry("r", "blk", Schema().add("x"), 64).isOk());
        ASSERT_TRUE(mgr.find("r", "blk")
                        ->registerClassifier(
                            Arch::Cpu,
                            [](const FvBatchView &v) {
                                return std::vector<float>(v.size(), 1.0f);
                            })
                        .isOk());
        ScoringConfig cfg;
        cfg.max_batch = 4;
        cfg.queue_capacity = 4096;
        ASSERT_TRUE(mgr.enableScoring(cfg).isOk());
        ScoreServer *s = mgr.scorer();

        std::atomic<std::uint64_t> admitted{0}, fired{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kSubmitters; ++t) {
            threads.emplace_back([&] {
                for (int i = 0; i < kIters; ++i) {
                    Status st = s->submit(
                        "r", "blk",
                        fvsWith({static_cast<std::uint64_t>(i)}), 0,
                        [&](const ScoreResult &) {
                            fired.fetch_add(1);
                        });
                    if (st.isOk())
                        admitted.fetch_add(1);
                }
            });
        }
        threads.emplace_back(
            [&] { ASSERT_TRUE(mgr.destroyRegistry("r", "blk").isOk()); });
        for (auto &t : threads)
            t.join();
        s->flushAll(clock_.now());

        // Every Ok-admitted request's callback fired exactly once —
        // scored or Unavailable, never lost to a freed registry.
        EXPECT_EQ(fired.load(), admitted.load());
        EXPECT_EQ(s->pending(), 0u);
    }
}

// Regression (TSan): facade sync scoring used to bypass the flush
// lock, racing an async flush through the same registry's policy and
// last-engine state. It now serializes against flushes.
TEST_F(ScoreServerTest, SyncScoreSerializesWithAsyncFlush)
{
    addRegistry("a", "blk", nullptr);
    ScoringConfig cfg;
    cfg.max_batch = 4;
    cfg.queue_capacity = 4096;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    constexpr int kIters = 200;
    std::atomic<std::uint64_t> scored{0};
    std::thread async_thread([&] {
        for (int i = 0; i < kIters; ++i) {
            ASSERT_TRUE(
                s->submit("a", "blk",
                          fvsWith({static_cast<std::uint64_t>(i)}), 0,
                          [&](const ScoreResult &r) {
                              scored.fetch_add(r.scores.size());
                          })
                    .isOk());
        }
    });
    std::thread sync_thread([&] {
        for (int i = 0; i < kIters; ++i) {
            std::vector<float> out = score_features(
                mgr_, "a", "blk",
                fvsWith({static_cast<std::uint64_t>(i)}), clock_.now());
            ASSERT_EQ(out.size(), 1u);
            EXPECT_FLOAT_EQ(out[0], static_cast<float>(i));
        }
    });
    async_thread.join();
    sync_thread.join();
    s->flushAll(clock_.now());
    EXPECT_EQ(scored.load(), static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(s->pending(), 0u);
}

TEST_F(ScoreServerTest, ConcurrentSubmitIsSafe)
{
    addRegistry("a", "blk", nullptr);
    addRegistry("b", "blk", nullptr);
    ScoringConfig cfg;
    cfg.max_batch = 8;
    cfg.queue_capacity = 4096;
    ASSERT_TRUE(mgr_.enableScoring(cfg).isOk());
    ScoreServer *s = mgr_.scorer();

    constexpr int kThreads = 4, kIters = 64;
    std::atomic<std::uint64_t> scored{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string name = (t % 2) ? "a" : "b";
            for (int i = 0; i < kIters; ++i) {
                Status st = s->submit(
                    name, "blk", fvsWith({static_cast<std::uint64_t>(i)}),
                    0, [&](const ScoreResult &r) {
                        scored.fetch_add(r.scores.size());
                    });
                ASSERT_TRUE(st.isOk());
            }
        });
    }
    for (auto &t : threads)
        t.join();
    s->flushAll(clock_.now());

    EXPECT_EQ(scored.load(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(s->pending(), 0u);
    EXPECT_EQ(s->submitted(),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ManagerTest, CaptureHandleBindsAndInternKeys)
{
    Clock clock;
    RegistryManager mgr(clock);
    ASSERT_TRUE(
        mgr.createRegistry("sda1", "bio", Schema().add("pend_ios"), 8)
            .isOk());

    CaptureHandle cap = capture_handle(mgr, "sda1", "bio");
    ASSERT_TRUE(cap.valid());
    std::uint64_t k = cap.key("pend_ios");
    EXPECT_EQ(k, featureKey("pend_ios"));

    cap.beginFvCapture(0);
    cap.captureFeature(k, 7);
    cap.captureFeatureIncr(k, 2);
    cap.commitFvCapture(5);
    auto fvs = get_features(mgr, "sda1", "bio", std::nullopt);
    ASSERT_EQ(fvs.size(), 1u);
    EXPECT_EQ(fvs[0].get("pend_ios"), 9u);

    EXPECT_FALSE(capture_handle(mgr, "nope", "bio").valid());
}

TEST(ManagerTest, LifecycleAndFacade)
{
    Clock clock;
    RegistryManager mgr(clock);

    Schema schema;
    schema.add("pend_ios");
    EXPECT_TRUE(
        create_registry(mgr, "sda1", "bio", std::move(schema), 16).isOk());
    EXPECT_EQ(mgr.registryCount(), 1u);
    // Duplicate creation fails.
    Schema schema2;
    schema2.add("pend_ios");
    EXPECT_EQ(create_registry(mgr, "sda1", "bio", std::move(schema2), 16)
                  .code(),
              Code::AlreadyExists);

    // The Listing 4/5 flow through the facade.
    begin_fv_capture(mgr, "sda1", "bio", 0);
    capture_feature_incr(mgr, "sda1", "bio", "pend_ios", 1);
    commit_fv_capture(mgr, "sda1", "bio", 5);
    auto fvs = get_features(mgr, "sda1", "bio", std::nullopt);
    ASSERT_EQ(fvs.size(), 1u);
    EXPECT_EQ(fvs[0].get("pend_ios"), 1u);
    truncate_features(mgr, "sda1", "bio", std::nullopt);
    EXPECT_TRUE(get_features(mgr, "sda1", "bio", std::nullopt).empty());

    EXPECT_TRUE(destroy_registry(mgr, "sda1", "bio").isOk());
    EXPECT_EQ(destroy_registry(mgr, "sda1", "bio").code(),
              Code::NotFound);
}

TEST(ModelStoreTest, LifecycleAndCosts)
{
    Clock clock;
    ModelStore store(clock);

    EXPECT_TRUE(store.createModel("/m/lat.nn").isOk());
    EXPECT_EQ(store.createModel("/m/lat.nn").code(), Code::AlreadyExists);
    EXPECT_TRUE(store.exists("/m/lat.nn"));

    std::vector<std::uint8_t> blob = {1, 2, 3, 4};
    EXPECT_TRUE(store.updateModel("/m/lat.nn", blob).isOk());
    // Not loaded into memory until load_model.
    EXPECT_EQ(store.inMemory("/m/lat.nn"), nullptr);
    EXPECT_TRUE(store.loadModel("/m/lat.nn").isOk());
    ASSERT_NE(store.inMemory("/m/lat.nn"), nullptr);
    EXPECT_EQ(*store.inMemory("/m/lat.nn"), blob);

    // Durable operations charge file-system-scale time.
    EXPECT_GE(clock.now(), 3 * ModelStore::kFsOpCost);

    // updateModel leaves the in-memory image serving old weights.
    std::vector<std::uint8_t> blob2 = {9, 9};
    EXPECT_TRUE(store.updateModel("/m/lat.nn", blob2).isOk());
    EXPECT_EQ(*store.inMemory("/m/lat.nn"), blob);
    EXPECT_TRUE(store.loadModel("/m/lat.nn").isOk());
    EXPECT_EQ(*store.inMemory("/m/lat.nn"), blob2);

    EXPECT_TRUE(store.deleteModel("/m/lat.nn").isOk());
    EXPECT_FALSE(store.exists("/m/lat.nn"));
    EXPECT_EQ(store.loadModel("/m/lat.nn").code(), Code::NotFound);
}

// The LAKE_SCORE_* knobs parse through base::envCount: a signed value
// used to wrap ("-1" made max_batch SIZE_MAX) and now keeps the value
// in force, as does trailing garbage.
TEST(ScoringConfigTest, EnvRejectsSignedAndTrailingGarbage)
{
    ScoringConfig defaults;
    ScoringConfig cfg;
    ::setenv("LAKE_SCORE_MAX_BATCH", "-1", 1);
    ::setenv("LAKE_SCORE_QUEUE_CAP", "4x", 1);
    cfg.applyEnv();
    EXPECT_EQ(cfg.max_batch, defaults.max_batch);
    EXPECT_EQ(cfg.queue_capacity, defaults.queue_capacity);

    ::setenv("LAKE_SCORE_MAX_BATCH", "16", 1);
    cfg.applyEnv();
    ::unsetenv("LAKE_SCORE_MAX_BATCH");
    ::unsetenv("LAKE_SCORE_QUEUE_CAP");
    EXPECT_EQ(cfg.max_batch, 16u);
}

// A 0 batch or queue bound used to pass through applyEnv and abort
// the process in ScoreServer's constructor; it keeps the value in
// force, so a server built from the config runs.
TEST(ScoringConfigTest, EnvZeroCountsKeepTheValueInForce)
{
    ScoringConfig cfg;
    cfg.max_batch = 8;
    cfg.queue_capacity = 64;
    ::setenv("LAKE_SCORE_MAX_BATCH", "0", 1);
    ::setenv("LAKE_SCORE_QUEUE_CAP", "0", 1);
    cfg.applyEnv();
    ::unsetenv("LAKE_SCORE_MAX_BATCH");
    ::unsetenv("LAKE_SCORE_QUEUE_CAP");
    EXPECT_EQ(cfg.max_batch, 8u);
    EXPECT_EQ(cfg.queue_capacity, 64u);

    Clock clock;
    RegistryManager mgr(clock);
    ScoreServer server(mgr, clock, cfg);
    EXPECT_EQ(server.config().max_batch, 8u);
}

// 18446744073709552 us is 2^64 + 384 ns: the delay used to wrap to
// 384 ns and now keeps the value in force.
TEST(ScoringConfigTest, EnvRejectsDelayThatOverflowsNanos)
{
    ScoringConfig cfg;
    ::setenv("LAKE_SCORE_MAX_DELAY_US", "18446744073709552", 1);
    cfg.applyEnv();
    EXPECT_EQ(cfg.max_delay, ScoringConfig{}.max_delay);

    ::setenv("LAKE_SCORE_MAX_DELAY_US", "7", 1);
    cfg.applyEnv();
    ::unsetenv("LAKE_SCORE_MAX_DELAY_US");
    EXPECT_EQ(cfg.max_delay, 7_us);
}

} // namespace
} // namespace lake::registry
