// Tests for the registry's column store (DESIGN.md §12): its
// feature-vector semantics against an independent map-based reference
// model, arena-backed and heap-backed stores reading identically,
// lakeShm returning to baseline after a registry lifecycle, slot
// lifecycle under window wrap / truncate while batch views are pinned,
// strided MatrixView bit-identity against the dense GEMM path,
// multi-threaded column capture (the TSan sweep target of
// bench/sanitize.sh), and the LAKE_SOA_SLACK env knob parse-safety.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/time.h"
#include "core/lake.h"
#include "ml/knn.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "registry/manager.h"
#include "registry/registry.h"
#include "registry/schema.h"
#include "registry/scoreserver.h"
#include "registry/soa.h"
#include "shm/arena.h"

namespace lake::registry {
namespace {

/** Column store for @p schema carved from @p arena (nullptr = heap). */
std::unique_ptr<SoaStore>
makeStore(Schema schema, std::size_t window, std::size_t slack,
          shm::ShmArena *arena)
{
    SoaConfig cfg;
    cfg.slack = slack;
    std::unique_ptr<SoaStore> store =
        SoaStore::create(std::move(schema), window, cfg, arena);
    EXPECT_NE(store, nullptr);
    return store;
}

/** A registry whose column store is carved from its own arena. */
struct SoaRig
{
    SoaRig(Schema schema, std::size_t window, std::size_t slack = 8)
        : arena(8ull << 20),
          reg("sda1", "bio_latency_prediction",
              makeStore(std::move(schema), window, slack, &arena))
    {
    }

    shm::ShmArena arena;
    Registry reg;
};

/**
 * Map-based reference model of the registry's feature-vector
 * semantics, sharing no code with the column store: the open vector is
 * a key -> value map that is never cleared (lane-0 carry-forward and
 * persistent counters), begin-while-open re-stamps forward keeping
 * every feature, a commit gives history entry i+1 the previous
 * vector's entry i, the window ring drops the oldest vector, and
 * truncate keeps the newest vector when the schema declares history.
 * Method names mirror Registry so one op replay drives both.
 */
class RefRegistry
{
  public:
    RefRegistry(Schema schema, std::size_t window)
        : schema_(std::move(schema)), window_(window)
    {
    }

    void beginFvCapture(Nanos ts) { open_begin_ = ts; }

    void
    captureFeature(const std::string &name, std::uint64_t value)
    {
        open_[featureKey(name)] = value;
    }
    void
    captureFeatureIncr(const std::string &name, std::int64_t delta)
    {
        open_[featureKey(name)] += static_cast<std::uint64_t>(delta);
    }
    void
    captureFeatureCol(std::uint32_t col, std::uint64_t value)
    {
        captureFeature(schema_.features()[col].name, value);
    }
    void
    captureFeatureIncrCol(std::uint32_t col, std::int64_t delta)
    {
        captureFeatureIncr(schema_.features()[col].name, delta);
    }

    void
    commitFvCapture(Nanos ts)
    {
        FeatureVector fv;
        fv.ts_begin = open_begin_;
        fv.ts_end = ts;
        for (const auto &[key, value] : open_) {
            std::vector<std::uint64_t> entries(schema_.find(key)->entries,
                                               0);
            entries[0] = value;
            auto prev = last_.values.find(key);
            if (prev != last_.values.end())
                for (std::size_t i = 1; i < entries.size(); ++i)
                    entries[i] = prev->second[i - 1];
            fv.values.emplace(key, std::move(entries));
        }
        last_ = fv;
        ring_.push_back(std::move(fv));
        if (ring_.size() > window_)
            ring_.pop_front();
        open_begin_ = ts;
    }

    std::vector<FeatureVector>
    getFeatures(std::optional<Nanos> ts = std::nullopt) const
    {
        if (!ts.has_value())
            return {ring_.begin(), ring_.end()};
        for (const FeatureVector &fv : ring_)
            if (fv.ts_begin <= *ts && *ts <= fv.ts_end)
                return {fv};
        return {};
    }

    void
    truncateFeatures(std::optional<Nanos> ts = std::nullopt)
    {
        std::size_t keep = schema_.hasHistory() ? 1 : 0;
        while (ring_.size() > keep &&
               !(ts.has_value() && ring_.front().ts_end >= *ts))
            ring_.pop_front();
    }

    std::size_t pendingCount() const { return ring_.size(); }

  private:
    Schema schema_;
    std::size_t window_;
    Nanos open_begin_ = 0;
    std::map<std::uint64_t, std::uint64_t> open_;
    FeatureVector last_;
    std::deque<FeatureVector> ring_;
};

Schema
historySchema()
{
    Schema s;
    s.add("pend_ios");
    s.add("lat", 8, 3);
    return s;
}

/** Asserts two getFeatures() dumps are bit-for-bit interchangeable. */
void
expectSameVectors(const std::vector<FeatureVector> &want,
                  const std::vector<FeatureVector> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].ts_begin, got[i].ts_begin) << "fv " << i;
        EXPECT_EQ(want[i].ts_end, got[i].ts_end) << "fv " << i;
        EXPECT_EQ(want[i].values, got[i].values) << "fv " << i;
    }
}

/** One registry operation of a replayable op stream. */
struct Op
{
    enum Kind
    {
        Set,     //!< captureFeature(name, v)
        Incr,    //!< captureFeatureIncr(name, v)
        SetCol,  //!< captureFeatureCol(col, v)
        IncrCol, //!< captureFeatureIncrCol(col, v)
        Begin,   //!< forward re-stamp at ts
        Commit,  //!< commit at ts
        Truncate //!< truncate older than ts
    } kind;
    std::string name;
    std::uint32_t col = 0;
    std::uint64_t v = 0;
    Nanos ts = 0;
};

/**
 * A random interleaving over historySchema() of captures (by key and by
 * column), increments, forward re-stamps, commits (wrapping an 8-deep
 * window), and truncates at earlier commit times.
 */
std::vector<Op>
randomOps(std::uint64_t seed, int n)
{
    Rng rng(seed);
    Nanos ts = 0;
    std::vector<Nanos> commits;
    std::vector<Op> ops;
    for (int i = 0; i < n; ++i) {
        int what = static_cast<int>(rng.uniformInt(0, 9));
        std::uint64_t v = rng.uniformInt(0, 5000);
        switch (what) {
        case 0:
        case 1:
            ops.push_back({Op::Set, "pend_ios", 0, v});
            break;
        case 2:
        case 3:
            ops.push_back({Op::Set, "lat", 0, v});
            break;
        case 4:
            ops.push_back({Op::Incr, "pend_ios", 0, v});
            break;
        case 5:
            ops.push_back({Op::SetCol, "", 1, v});
            break;
        case 6:
            ops.push_back({Op::IncrCol, "", 0, v});
            break;
        case 7:
            ts += rng.uniformInt(1, 50);
            ops.push_back({Op::Begin, "", 0, 0, ts});
            break;
        case 8:
            ts += rng.uniformInt(1, 50);
            commits.push_back(ts);
            ops.push_back({Op::Commit, "", 0, 0, ts});
            break;
        case 9:
            if (!commits.empty() && rng.uniformInt(0, 3) == 0)
                ops.push_back(
                    {Op::Truncate, "", 0, 0,
                     commits[rng.uniformInt(0, commits.size() - 1)]});
            break;
        }
    }
    return ops;
}

/** Applies @p op to a Registry or a RefRegistry. */
template <typename R>
void
apply(R &r, const Op &op)
{
    auto delta = static_cast<std::int64_t>(op.v);
    switch (op.kind) {
    case Op::Set: r.captureFeature(op.name, op.v); break;
    case Op::Incr: r.captureFeatureIncr(op.name, delta); break;
    case Op::SetCol: r.captureFeatureCol(op.col, op.v); break;
    case Op::IncrCol: r.captureFeatureIncrCol(op.col, delta); break;
    case Op::Begin: r.beginFvCapture(op.ts); break;
    case Op::Commit: r.commitFvCapture(op.ts); break;
    case Op::Truncate: r.truncateFeatures(op.ts); break;
    }
}

TEST(SoaEquivalenceTest, CaptureCommitMaterializeMatchesLegacy)
{
    RefRegistry ref(historySchema(), 8);
    SoaRig soa(historySchema(), 8);

    const std::vector<Op> ops = {
        {Op::Begin, "", 0, 0, 100},
        {Op::Set, "pend_ios", 0, 5},
        {Op::Set, "lat", 0, 250},
        {Op::Commit, "", 0, 0, 110},
        // Second vector: history lane 1 must inherit 250, the pending
        // counter must carry forward and keep incrementing.
        {Op::Incr, "pend_ios", 0, 2},
        {Op::Set, "lat", 0, 400},
        {Op::Commit, "", 0, 0, 120},
    };
    for (const Op &op : ops) {
        apply(ref, op);
        apply(soa.reg, op);
    }
    std::vector<FeatureVector> b = soa.reg.getFeatures();
    expectSameVectors(ref.getFeatures(), b);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[1].get("pend_ios"), 7u);
    EXPECT_EQ(b[1].values.at(featureKey("lat"))[1], 250u);
}

TEST(SoaEquivalenceTest, ForwardRestampKeepsFeaturesOnBothPlanes)
{
    RefRegistry ref(historySchema(), 8);
    SoaRig soa(historySchema(), 8);
    const std::vector<Op> ops = {
        {Op::Begin, "", 0, 0, 10},
        {Op::Set, "pend_ios", 0, 3},
        {Op::Begin, "", 0, 0, 50}, // re-arm, keep features
        {Op::Set, "lat", 0, 700},
        {Op::Commit, "", 0, 0, 60},
    };
    for (const Op &op : ops) {
        apply(ref, op);
        apply(soa.reg, op);
    }
    expectSameVectors(ref.getFeatures(), soa.reg.getFeatures());
    std::vector<FeatureVector> got = soa.reg.getFeatures();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].ts_begin, 50u);
    EXPECT_EQ(got[0].get("pend_ios"), 3u);
}

// The randomized property pin: any interleaving of captures (by key
// and by column), increments, forward re-stamps, commits, wraps, and
// truncates reads back from the column store exactly as from the
// reference model.
TEST(SoaEquivalenceTest, RandomizedOpStreamEquivalence)
{
    RefRegistry ref(historySchema(), 8);
    SoaRig soa(historySchema(), 8);
    ref.beginFvCapture(0);
    soa.reg.beginFvCapture(0);

    std::vector<Nanos> commits;
    for (const Op &op : randomOps(1234, 600)) {
        apply(ref, op);
        apply(soa.reg, op);
        if (op.kind == Op::Commit)
            commits.push_back(op.ts);
        if (op.kind == Op::Commit || op.kind == Op::Truncate)
            expectSameVectors(ref.getFeatures(), soa.reg.getFeatures());
        EXPECT_EQ(ref.pendingCount(), soa.reg.pendingCount());
    }
    ASSERT_FALSE(commits.empty());
    // Timestamp-indexed retrieval agrees too.
    for (Nanos t : commits)
        expectSameVectors(ref.getFeatures(t), soa.reg.getFeatures(t));
}

// Where the store's bytes live must not change what it reads back: a
// store carved from a shm arena and one on the heap, fed the same op
// stream, materialize the same vectors and expose the same float rows.
TEST(SoaStoreTest, ArenaAndHeapBackedRegistriesReadIdentically)
{
    SoaRig in_arena(historySchema(), 8);
    Registry on_heap("sda1", "bio_latency_prediction", historySchema(), 8);
    in_arena.reg.beginFvCapture(0);
    on_heap.beginFvCapture(0);
    for (const Op &op : randomOps(77, 400)) {
        apply(in_arena.reg, op);
        apply(on_heap, op);
    }
    ASSERT_GT(on_heap.pendingCount(), 0u);
    expectSameVectors(in_arena.reg.getFeatures(), on_heap.getFeatures());

    FvBatchView a = in_arena.reg.batchView();
    FvBatchView b = on_heap.batchView();
    ASSERT_EQ(a.size(), b.size());
    auto rows = [](const FvBatchView &v) {
        std::vector<std::vector<float>> out;
        for (const ml::MatrixView &mv : v.matrixViews())
            for (std::size_t r = 0; r < mv.rows(); ++r)
                out.emplace_back(mv.row(r), mv.row(r) + mv.cols());
        return out;
    };
    std::vector<std::vector<float>> ra = rows(a);
    EXPECT_EQ(ra.size(), a.size());
    EXPECT_EQ(ra, rows(b));
}

// A booted Lake carves every registry's columns from shard 0's arena:
// a full registry lifecycle — create, capture, commit, score pinned
// views through the ScoreServer, flush, destroy — must hand every byte
// and allocation back, or long-lived hosts leak lakeShm per registry.
TEST(SoaLakeShmTest, RegistryLifecycleReturnsArenaToBaseline)
{
    core::LakeConfig cfg;
    cfg.scoring.enabled = true;
    cfg.scoring.max_batch = 4;
    core::Lake lake(cfg);
    shm::ShmArena &arena = lake.arena();
    const std::size_t used0 = arena.used();
    const std::size_t allocs0 = arena.liveAllocs();

    RegistryManager &mgr = lake.registries();
    ScoreServer *server = mgr.scorer();
    ASSERT_NE(server, nullptr);
    Classifier view_fn = [](const FvBatchView &v) {
        return std::vector<float>(v.size(), 1.0f);
    };
    const std::vector<std::string> names = {"sda1", "sdb1", "sdc1"};
    for (const std::string &name : names) {
        ASSERT_TRUE(mgr.createRegistry(name, "sys", historySchema(), 8)
                        .isOk());
        ASSERT_TRUE(mgr.find(name, "sys")
                        ->registerClassifier(Arch::Cpu, view_fn)
                        .isOk());
    }
    EXPECT_GT(arena.liveAllocs(), allocs0);

    std::size_t scored = 0;
    for (std::uint64_t i = 0; i < 12; ++i) {
        const std::string &name = names[i % names.size()];
        Registry *reg = mgr.find(name, "sys");
        if (!reg->captureOpen())
            reg->beginFvCapture(lake.clock().now());
        reg->captureFeature("pend_ios", i);
        reg->captureFeature("lat", 100 + i);
        reg->commitFvCapture(lake.clock().now());
        ASSERT_TRUE(server
                        ->submitView(name, "sys", reg->tailView(1), 0,
                                     [&](const ScoreResult &r) {
                                         EXPECT_TRUE(r.status.isOk());
                                         ++scored;
                                     })
                        .isOk());
        lake.clock().advance(1_us);
    }
    server->flushAll(lake.clock().now());
    EXPECT_EQ(scored, 12u);

    for (const std::string &name : names)
        ASSERT_TRUE(mgr.destroyRegistry(name, "sys").isOk());
    EXPECT_EQ(arena.used(), used0);
    EXPECT_EQ(arena.liveAllocs(), allocs0);
}

// Column captures from many threads while one capture is open — the
// relaxed-atomic lanes plus the ever-captured bitmap are what
// `bench/sanitize.sh thread -L soa` sweeps here.
TEST(SoaConcurrencyTest, ColumnCaptureFromManyThreads)
{
    Schema s;
    for (int c = 0; c < 4; ++c)
        s.add("own" + std::to_string(c));
    s.add("shared");
    SoaRig soa(std::move(s), 8);
    soa.reg.beginFvCapture(0);

    constexpr int kThreads = 4;
    constexpr std::uint64_t kIters = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::uint64_t i = 1; i <= kIters; ++i) {
                soa.reg.captureFeatureCol(static_cast<std::uint32_t>(t),
                                          i);
                soa.reg.captureFeatureIncrCol(kThreads, 1);
            }
        });
    for (std::thread &th : threads)
        th.join();
    soa.reg.commitFvCapture(10);

    std::vector<FeatureVector> got = soa.reg.getFeatures();
    ASSERT_EQ(got.size(), 1u);
    // Each "own" column was last written with kIters by its one owner;
    // the shared counter saw every increment exactly once.
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[0].get("own" + std::to_string(t)), kIters);
    EXPECT_EQ(got[0].get("shared"), kThreads * kIters);
}

// A window wrap must recycle sealed slots without invalidating an
// in-flight batch view — recycling defers (Retired) until the last
// view unpins.
TEST(SoaViewTest, WindowWrapDefersRecycleBehindPinnedView)
{
    Schema s;
    s.add("x");
    SoaRig soa(std::move(s), 4, /*slack=*/6);
    soa.reg.beginFvCapture(0);
    for (std::uint64_t i = 0; i < 4; ++i) {
        soa.reg.captureFeature("x", 100 + i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }

    FvBatchView view = soa.reg.batchView();
    ASSERT_EQ(view.size(), 4u);
    std::vector<ml::MatrixView> before = view.matrixViews();

    // Wrap the whole window while the view is pinned.
    for (std::uint64_t i = 4; i < 8; ++i) {
        soa.reg.captureFeature("x", 100 + i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    EXPECT_GT(soa.reg.soa().retiredCount(), 0u);

    // The pinned rows still read their original bytes — scalar lanes,
    // timestamps, and the float rows a concurrent GEMM would consume.
    for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_EQ(view.get(r, featureKey("x")), 100 + r);
        EXPECT_EQ(view.tsEnd(r), 10 * (r + 1));
    }
    std::vector<ml::MatrixView> after = view.matrixViews();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t b = 0; b < before.size(); ++b) {
        ASSERT_EQ(before[b].rows(), after[b].rows());
        for (std::size_t r = 0; r < before[b].rows(); ++r)
            EXPECT_EQ(std::memcmp(before[b].row(r), after[b].row(r),
                                  before[b].cols() * sizeof(float)),
                      0);
    }
    // The new window reads the new values through a fresh view.
    FvBatchView fresh = soa.reg.batchView();
    ASSERT_EQ(fresh.size(), 4u);
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_EQ(fresh.get(r, featureKey("x")), 104 + r);

    // Dropping the views frees every deferred slot.
    fresh = FvBatchView();
    view = FvBatchView();
    EXPECT_EQ(soa.reg.soa().retiredCount(), 0u);
}

TEST(SoaViewTest, TruncateDefersRecycleBehindPinnedView)
{
    Schema s;
    s.add("x"); // no history: truncate(nullopt) drops everything
    SoaRig soa(std::move(s), 8);
    soa.reg.beginFvCapture(0);
    for (std::uint64_t i = 0; i < 5; ++i) {
        soa.reg.captureFeature("x", i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    FvBatchView view = soa.reg.batchView();
    soa.reg.truncateFeatures();
    EXPECT_EQ(soa.reg.pendingCount(), 0u);
    EXPECT_GT(soa.reg.soa().retiredCount(), 0u);
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_EQ(view.get(r, featureKey("x")), r);
    view = FvBatchView();
    EXPECT_EQ(soa.reg.soa().retiredCount(), 0u);
    // The store keeps working after the deferred free.
    soa.reg.captureFeature("x", 99);
    soa.reg.commitFvCapture(100);
    EXPECT_EQ(soa.reg.getFeatures()[0].get("x"), 99u);
}

// The strided zero-copy windows must be bit-identical inputs to the
// GEMM/kNN substrate: forward over matrixViews() == forward over a
// dense gathered copy, float for float.
TEST(SoaViewTest, MatrixViewsBitIdenticalToDenseCompute)
{
    Schema s;
    for (int c = 0; c < 5; ++c)
        s.add("f" + std::to_string(c));
    SoaRig soa(std::move(s), 16);
    soa.reg.beginFvCapture(0);
    Rng rng(7);
    const std::size_t n = 12;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::uint32_t c = 0; c < 5; ++c)
            soa.reg.captureFeatureCol(c, rng.uniformInt(0, 999));
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    FvBatchView view = soa.reg.batchView();
    std::vector<ml::MatrixView> views = view.matrixViews();

    // Dense gather (what a vector classifier's pack step would stage).
    ml::Matrix dense(n, 5);
    std::size_t r = 0;
    for (const ml::MatrixView &mv : views) {
        ASSERT_EQ(mv.cols(), 5u);
        ASSERT_GE(mv.stride(), mv.cols());
        for (std::size_t vr = 0; vr < mv.rows(); ++vr, ++r)
            std::copy(mv.row(vr), mv.row(vr) + 5, dense.row(r));
    }
    ASSERT_EQ(r, n);

    ml::MlpConfig mc;
    mc.input = 5;
    mc.hidden = {16};
    mc.output = 2;
    Rng mrng(42);
    ml::Mlp mlp(mc, mrng);
    ml::Matrix from_views = mlp.forward(views);
    ml::Matrix from_dense = mlp.forward(dense);
    ASSERT_EQ(from_views.rows(), from_dense.rows());
    EXPECT_EQ(std::memcmp(from_views.data(), from_dense.data(),
                          from_dense.size() * sizeof(float)),
              0);

    ml::Knn knn(5, 3);
    Rng krng(9);
    for (int p = 0; p < 64; ++p) {
        float ref[5];
        for (float &f : ref)
            f = static_cast<float>(krng.uniform(0.0, 999.0));
        knn.add(ref, p % 2);
    }
    EXPECT_EQ(knn.classifyBatch(ml::MatrixView(dense.data(), n, 5, 5)),
              knn.classifyBatch(dense.data(), n));
    std::vector<int> strided;
    for (const ml::MatrixView &mv : views) {
        std::vector<int> part = knn.classifyBatch(mv);
        strided.insert(strided.end(), part.begin(), part.end());
    }
    EXPECT_EQ(strided, knn.classifyBatch(dense.data(), n));
}

TEST(SoaViewTest, SelectRepinsRowSubsetInOrder)
{
    Schema s;
    s.add("x");
    SoaRig soa(std::move(s), 8);
    soa.reg.beginFvCapture(0);
    for (std::uint64_t i = 0; i < 6; ++i) {
        soa.reg.captureFeature("x", i);
        soa.reg.commitFvCapture(10 * (i + 1));
    }
    FvBatchView view = soa.reg.batchView();
    FvBatchView sub = view.select({4, 1, 1});
    ASSERT_EQ(sub.size(), 3u);
    EXPECT_EQ(sub.get(0, featureKey("x")), 4u);
    EXPECT_EQ(sub.get(1, featureKey("x")), 1u);
    EXPECT_EQ(sub.get(2, featureKey("x")), 1u);
    // The subset outlives the parent view.
    view = FvBatchView();
    EXPECT_EQ(sub.tsEnd(0), 50u);
    std::vector<FeatureVector> mat = sub.materialize();
    ASSERT_EQ(mat.size(), 3u);
    EXPECT_EQ(mat[2].get("x"), 1u);
}

// Caller-built vectors reach a classifier as borrowed rows: every view
// accessor reads the caller's FeatureVector through the schema, and
// matrixViews() encodes the rows with the store's float encoder.
TEST(SoaViewTest, BorrowedRowsReadCallerVectors)
{
    Schema s;
    s.add("x");
    s.add("h", 8, 2);
    Registry reg("sda1", "sys", s, 8);
    std::vector<FeatureVector> fvs(2);
    fvs[0].ts_begin = 5;
    fvs[0].ts_end = 9;
    fvs[0].values[featureKey("x")] = {3};
    fvs[0].values[featureKey("h")] = {7, 6};
    fvs[1].values[featureKey("h")] = {4};     // one history entry
    fvs[1].values[featureKey("other")] = {1}; // outside the schema

    bool checked = false;
    ASSERT_TRUE(
        reg.registerClassifier(Arch::Cpu, [&](const FvBatchView &v) {
               EXPECT_EQ(v.size(), 2u);
               EXPECT_EQ(v.tsBegin(0), 5u);
               EXPECT_EQ(v.tsEnd(0), 9u);
               EXPECT_EQ(v.get(0, featureKey("x")), 3u);
               EXPECT_EQ(v.get(1, featureKey("x")), 0u);
               EXPECT_EQ(v.get(1, featureKey("other")), 0u);
               EXPECT_EQ(v.value(0, 1, 1), 6u);
               EXPECT_EQ(v.value(1, 1, 1), 0u);
               // The default encoder: lane 0 of every column.
               std::vector<ml::MatrixView> mv = v.matrixViews();
               EXPECT_EQ(mv.size(), 1u);
               EXPECT_EQ(ml::Matrix::pack(mv).at(1, 1), 4.0f);
               EXPECT_EQ(mv[0].at(0, 0), 3.0f);
               EXPECT_EQ(mv[0].at(0, 1), 7.0f);
               EXPECT_EQ(mv[0].at(1, 0), 0.0f);
               // Row 0 stages x (8 B) and h (16 B); row 1 h and other.
               EXPECT_EQ(v.packBytesAvoided(), 40u);
               std::vector<FeatureVector> mat = v.select({1, 0}).materialize();
               EXPECT_EQ(mat.size(), 2u);
               EXPECT_EQ(mat[0].values, fvs[1].values);
               EXPECT_EQ(mat[1].values, fvs[0].values);
               checked = true;
               return std::vector<float>(v.size(), 0.0f);
           })
            .isOk());
    reg.scoreFeatures(fvs, 0);
    EXPECT_TRUE(checked);
}

// One classifier type, one answer: scoreFeatures gives the same scores
// for every pairing of {vector-registered, view-registered} classifier
// and {getFeatures() vectors, batchView()} input.
TEST(SoaScoreTest, ViewScoringMatchesLegacyScoring)
{
    auto build = [](SoaRig &soa) {
        soa.reg.beginFvCapture(0);
        Rng rng(21);
        for (std::size_t i = 0; i < 10; ++i) {
            soa.reg.captureFeatureCol(0, rng.uniformInt(0, 99));
            soa.reg.captureFeatureCol(1, rng.uniformInt(0, 99));
            soa.reg.commitFvCapture(10 * (i + 1));
        }
    };
    Schema s;
    s.add("a");
    s.add("b");

    const std::vector<FeatureVector> *seen = nullptr;
    VectorClassifier vector_fn =
        [&seen](const std::vector<FeatureVector> &fvs) {
            seen = &fvs;
            std::vector<float> out;
            for (const FeatureVector &fv : fvs)
                out.push_back(static_cast<float>(fv.get("a")) +
                              2.0f * static_cast<float>(fv.get("b")));
            return out;
        };
    Classifier view_fn = [](const FvBatchView &v) {
        std::vector<float> out;
        for (std::size_t r = 0; r < v.size(); ++r)
            out.push_back(
                static_cast<float>(v.value(r, 0)) +
                2.0f * static_cast<float>(v.value(r, 1)));
        return out;
    };

    SoaRig vector_reg(s, 16);
    ASSERT_TRUE(
        vector_reg.reg.registerClassifier(Arch::Cpu, vector_fn).isOk());
    build(vector_reg);
    SoaRig view_reg(s, 16);
    ASSERT_TRUE(view_reg.reg.registerClassifier(Arch::Cpu, view_fn).isOk());
    build(view_reg);

    std::vector<FeatureVector> in = vector_reg.reg.getFeatures();
    std::vector<float> via_vectors = vector_reg.reg.scoreFeatures(in, 200);
    // The frozen-compat adapter hands a vector classifier the caller's
    // own batch: a silent copy would show up here.
    EXPECT_EQ(seen, &in);
    ASSERT_EQ(via_vectors.size(), 10u);
    EXPECT_EQ(vector_reg.reg.scoreFeatures(vector_reg.reg.batchView(), 200),
              via_vectors);
    EXPECT_EQ(view_reg.reg.scoreFeatures(view_reg.reg.getFeatures(), 200),
              via_vectors);
    std::vector<float> via_view =
        view_reg.reg.scoreFeatures(view_reg.reg.batchView(), 200);
    EXPECT_EQ(via_view, via_vectors);
}

/** Score of a two-column row: a + 2b, read from the float windows. */
std::vector<float>
scoreWindows(const FvBatchView &v)
{
    std::vector<float> out;
    for (const ml::MatrixView &mv : v.matrixViews())
        for (std::size_t r = 0; r < mv.rows(); ++r)
            out.push_back(mv.at(r, 0) + 2.0f * mv.at(r, 1));
    return out;
}

/** Caller-built two-feature vectors (x, y) = pairs[i]. */
std::vector<FeatureVector>
callerVectors(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> &pairs)
{
    std::vector<FeatureVector> out;
    for (const auto &[x, y] : pairs) {
        FeatureVector fv;
        fv.values[featureKey("x")] = {x};
        fv.values[featureKey("y")] = {y};
        out.push_back(std::move(fv));
    }
    return out;
}

// A registry whose only classifier reads float windows still scores
// caller-built vectors on all three vector entry points — async
// submit, the service-off score_features_async, and sync scoreFeatures
// — with the scores the same rows get as committed slots.
TEST(SoaScoreTest, WindowClassifierScoresCallerVectors)
{
    Clock clock;
    RegistryManager mgr(clock);
    Schema s;
    s.add("x");
    s.add("y");
    ASSERT_TRUE(mgr.createRegistry("sda1", "sys", s, 16).isOk());
    Registry *reg = mgr.find("sda1", "sys");
    ASSERT_TRUE(
        reg->registerClassifier(Arch::Cpu, Classifier(scoreWindows))
            .isOk());

    const std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs = {
        {3, 1}, {40, 7}, {5, 90}};
    reg->beginFvCapture(0);
    for (const auto &[x, y] : pairs) {
        reg->captureFeature("x", x);
        reg->captureFeature("y", y);
        reg->commitFvCapture(clock.now());
    }
    const std::vector<float> expect =
        reg->scoreFeatures(reg->batchView(), 0);
    ASSERT_EQ(expect, (std::vector<float>{5.0f, 54.0f, 185.0f}));

    // 1. Async submit through the scoring service.
    ScoringConfig cfg;
    cfg.enabled = true;
    ASSERT_TRUE(mgr.enableScoring(cfg).isOk());
    std::vector<float> async_scores;
    ASSERT_TRUE(mgr.scorer()
                    ->submit("sda1", "sys", callerVectors(pairs), 0,
                             [&](const ScoreResult &r) {
                                 EXPECT_TRUE(r.status.isOk());
                                 async_scores = r.scores;
                             })
                    .isOk());
    mgr.scorer()->flushAll(clock.now());
    EXPECT_EQ(async_scores, expect);
    mgr.disableScoring();

    // 2. score_features_async with the service off: inline scoring.
    std::vector<float> inline_scores;
    ASSERT_TRUE(score_features_async(mgr, "sda1", "sys",
                                     callerVectors(pairs), 0,
                                     [&](const ScoreResult &r) {
                                         inline_scores = r.scores;
                                     })
                    .isOk());
    EXPECT_EQ(inline_scores, expect);

    // 3. Sync scoreFeatures over caller-owned vectors.
    EXPECT_EQ(reg->scoreFeatures(callerVectors(pairs), 0), expect);
}

// A flush that coalesces a vector submit() with a submitView() counts
// every row's staged bytes in reg_pack_bytes exactly once, and scatters
// each request the scores its rows get on the sync path.
TEST(SoaScoreTest, MixedFlushCountsEachRowOnce)
{
    Clock clock;
    RegistryManager mgr(clock);
    Schema s;
    s.add("x");
    s.add("y");
    ASSERT_TRUE(mgr.createRegistry("sda1", "sys", s, 16).isOk());
    Registry *reg = mgr.find("sda1", "sys");
    // A vector classifier: the pinned rows must be materialized for it.
    ASSERT_TRUE(reg->registerClassifier(
                       Arch::Cpu,
                       [](const std::vector<FeatureVector> &fvs) {
                           std::vector<float> out;
                           for (const FeatureVector &fv : fvs)
                               out.push_back(
                                   static_cast<float>(fv.get("x")) +
                                   2.0f * static_cast<float>(fv.get("y")));
                           return out;
                       })
                    .isOk());

    // Three committed rows with both columns: 3 x 2 x 8 bytes.
    reg->beginFvCapture(0);
    for (std::uint64_t i = 0; i < 3; ++i) {
        reg->captureFeature("x", 10 + i);
        reg->captureFeature("y", i);
        reg->commitFvCapture(10 * (i + 1));
    }
    // Two caller rows: one feature, then two (8 + 16 bytes).
    std::vector<FeatureVector> fvs(2);
    fvs[0].values[featureKey("x")] = {7};
    fvs[1].values[featureKey("x")] = {8};
    fvs[1].values[featureKey("y")] = {1};
    const std::size_t view_bytes = 3 * 2 * sizeof(std::uint64_t);
    const std::size_t vector_bytes = 3 * sizeof(std::uint64_t);

    const std::vector<float> sync_vectors = reg->scoreFeatures(fvs, 100);
    const std::vector<float> sync_view =
        reg->scoreFeatures(reg->batchView(), 100);
    ASSERT_EQ(sync_vectors, (std::vector<float>{7.0f, 10.0f}));
    ASSERT_EQ(sync_view, (std::vector<float>{10.0f, 13.0f, 16.0f}));

    ScoringConfig cfg;
    cfg.enabled = true;
    ASSERT_TRUE(mgr.enableScoring(cfg).isOk());
    auto &met = obs::Metrics::global();
    met.setEnabled(true);
    const std::uint64_t pack0 = met.reg_pack_bytes.get();
    std::vector<float> got_vectors, got_view;
    std::size_t batch = 0;
    ASSERT_TRUE(mgr.scorer()
                    ->submit("sda1", "sys", fvs, 0,
                             [&](const ScoreResult &r) {
                                 got_vectors = r.scores;
                                 batch = r.batch;
                             })
                    .isOk());
    ASSERT_TRUE(mgr.scorer()
                    ->submitView("sda1", "sys", reg->batchView(), 0,
                                 [&](const ScoreResult &r) {
                                     got_view = r.scores;
                                 })
                    .isOk());
    EXPECT_EQ(mgr.scorer()->flushAll(clock.now()), 1u);
    const std::uint64_t packed = met.reg_pack_bytes.get() - pack0;
    met.setEnabled(false);

    EXPECT_EQ(batch, 5u);
    EXPECT_EQ(packed, view_bytes + vector_bytes);
    EXPECT_EQ(got_vectors, sync_vectors);
    EXPECT_EQ(got_view, sync_view);
}

// submitView through the ScoreServer: single-row views coalesce across
// registries into one dispatch, every callback sees the full batch
// depth, and the scores match the synchronous path.
TEST(SoaScoreTest, ScoreServerCoalescesSubmittedViews)
{
    Clock clock;
    shm::ShmArena arena(8ull << 20);
    RegistryManager mgr(clock, &arena);

    Classifier view_fn = [](const FvBatchView &v) {
        std::vector<float> out;
        for (std::size_t r = 0; r < v.size(); ++r)
            out.push_back(static_cast<float>(v.value(r, 0)));
        return out;
    };
    Schema s;
    s.add("x");
    for (const char *name : {"sda1", "sdb1"}) {
        ASSERT_TRUE(
            mgr.createRegistry(name, "sys", s, 64).isOk());
        ASSERT_TRUE(mgr.find(name, "sys")
                        ->registerClassifier(Arch::Cpu, view_fn)
                        .isOk());
    }
    ScoringConfig cfg;
    cfg.enabled = true;
    cfg.max_batch = 8;
    cfg.queue_capacity = 32;
    ASSERT_TRUE(mgr.enableScoring(cfg).isOk());

    std::vector<float> scores;
    std::vector<std::size_t> batches;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const char *name = (i % 2) ? "sdb1" : "sda1";
        Registry *reg = mgr.find(name, "sys");
        if (!reg->captureOpen())
            reg->beginFvCapture(clock.now());
        reg->captureFeatureCol(0, 100 + i);
        reg->commitFvCapture(clock.now());
        Status st = mgr.scorer()->submitView(
            name, "sys", reg->tailView(1), 0,
            [&](const ScoreResult &r) {
                ASSERT_TRUE(r.status.isOk());
                ASSERT_EQ(r.scores.size(), 1u);
                scores.push_back(r.scores[0]);
                batches.push_back(r.batch);
            });
        ASSERT_TRUE(st.isOk());
        clock.advance(1_us);
    }
    // The 8th submission hit max_batch and flushed the whole group;
    // callbacks run in drain order (requests grouped per registry), so
    // compare as a set: every vector scored once, with its own value,
    // and every callback saw the full coalesced batch depth.
    ASSERT_EQ(scores.size(), 8u);
    std::sort(scores.begin(), scores.end());
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_FLOAT_EQ(scores[i], 100.0f + static_cast<float>(i));
        EXPECT_EQ(batches[i], 8u);
    }
}

TEST(SoaStoreTest, ColumnsAreCacheLineIsolated)
{
    shm::ShmArena arena(4ull << 20);
    Schema s;
    s.add("a");
    s.add("hist", 8, 4);
    s.add("b");

    auto line = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p) / 64;
    };
    // Arena-carved and heap-owned stores alike: every column region
    // starts on its own cache line, and no two columns' lanes ever
    // share one (concurrent captures of different features never
    // false-share).
    for (shm::ShmArena *backing : {&arena, (shm::ShmArena *)nullptr}) {
        std::unique_ptr<SoaStore> store = makeStore(s, 8, 8, backing);
        ASSERT_NE(store, nullptr);
        for (std::uint32_t c = 0; c < 3; ++c)
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                          store->laneAddr(c, 0, 0)) %
                          64,
                      0u)
                << "column " << c << (backing ? " (arena)" : " (heap)");
        const std::uint32_t entries[3] = {1, 4, 1};
        for (std::uint32_t c = 0; c + 1 < 3; ++c) {
            const std::uint64_t *last = store->laneAddr(
                c, entries[c] - 1,
                static_cast<std::uint32_t>(store->capacity() - 1));
            const std::uint64_t *next = store->laneAddr(c + 1, 0, 0);
            EXPECT_LT(line(last), line(next));
        }
    }
}

TEST(SoaStoreTest, CreateFailsCleanlyWhenArenaTooSmall)
{
    shm::ShmArena tiny(4096);
    Schema s;
    s.add("hist", 8, 64);
    SoaConfig cfg;
    cfg.slack = 64;
    EXPECT_EQ(SoaStore::create(s, 4096, cfg, &tiny), nullptr);

    // The manager reports the same exhaustion as a Status.
    Clock clock;
    RegistryManager mgr(clock, &tiny, cfg);
    EXPECT_EQ(mgr.createRegistry("big", "sys", s, 4096).code(),
              Code::ResourceExhausted);
    EXPECT_EQ(mgr.registryCount(), 0u);
}

TEST(SoaConfigTest, EnvOverridesParseSafely)
{
    // The store is the only plane; no knob can switch it off.
    static_assert(SoaConfig::enabled);

    SoaConfig cfg;
    cfg.slack = 8;
    ::setenv("LAKE_SOA_SLACK", "16", 1);
    cfg.applyEnv();
    EXPECT_EQ(cfg.slack, 16u);

    // Garbage falls back to the value already in force — including a
    // sign (strtoull would wrap "-1" to SIZE_MAX slots) and trailing
    // characters.
    for (const char *bad : {"lots", "-1", "4x", ""}) {
        ::setenv("LAKE_SOA_SLACK", bad, 1);
        cfg.applyEnv();
        EXPECT_EQ(cfg.slack, 16u) << "'" << bad << "'";
    }

    ::unsetenv("LAKE_SOA_SLACK");
    cfg.applyEnv();
    EXPECT_EQ(cfg.slack, 16u);
}

} // namespace
} // namespace lake::registry
