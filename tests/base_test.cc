// Unit tests for the base toolkit: rng distributions, statistics,
// ring buffer, env count parsing, status/result, and virtual time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/aligned.h"
#include "base/env.h"
#include "base/ring_buffer.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/status.h"
#include "base/time.h"

namespace lake {
namespace {

TEST(TimeTest, LiteralsScale)
{
    EXPECT_EQ(1_us, 1000u);
    EXPECT_EQ(1_ms, 1000u * 1000u);
    EXPECT_EQ(1_s, 1000u * 1000u * 1000u);
    EXPECT_DOUBLE_EQ(toUs(1500), 1.5);
    EXPECT_DOUBLE_EQ(toMs(2'500'000), 2.5);
}

TEST(TimeTest, ClockMonotone)
{
    Clock c;
    EXPECT_EQ(c.now(), 0u);
    c.advance(5_us);
    EXPECT_EQ(c.now(), 5000u);
    c.advanceTo(3_us); // stale deadline: no-op
    EXPECT_EQ(c.now(), 5000u);
    c.advanceTo(9_us);
    EXPECT_EQ(c.now(), 9000u);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
}

TEST(RngTest, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RngTest, ExponentialMean)
{
    Rng rng(1);
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.exponential(250.0));
    EXPECT_NEAR(s.mean(), 250.0, 5.0);
}

TEST(RngTest, LognormalMoments)
{
    Rng rng(2);
    RunningStat s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.lognormalByMoments(30.0, 28.0));
    EXPECT_NEAR(s.mean(), 30.0, 1.0);
    EXPECT_NEAR(s.stddev(), 28.0, 2.5);
}

TEST(RngTest, UniformIntBounds)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(RngTest, ChanceEdges)
{
    Rng rng(4);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(RunningStatTest, Moments)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.1380899, 1e-6); // sample stddev
}

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(PercentileTest, ExactRanks)
{
    PercentileTracker p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_NEAR(p.percentile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(p.percentile(100.0), 100.0, 1e-9);
    EXPECT_NEAR(p.percentile(50.0), 50.5, 1e-9);
    EXPECT_NEAR(p.percentile(95.0), 95.05, 1e-9);
}

TEST(PercentileTest, AddAfterQuery)
{
    PercentileTracker p;
    p.add(10.0);
    EXPECT_DOUBLE_EQ(p.percentile(50.0), 10.0);
    p.add(20.0);
    EXPECT_DOUBLE_EQ(p.percentile(100.0), 20.0);
}

// Regression: add() used to leave sorted_ set after a percentile()
// call, so later samples were appended to a vector still flagged
// sorted and queries interpolated over partially-sorted data.
TEST(PercentileTest, InterleavedAddQuery)
{
    PercentileTracker p;
    p.add(50.0);
    EXPECT_DOUBLE_EQ(p.percentile(50.0), 50.0); // sorts, sets the flag
    p.add(10.0);                                // lands past the sorted prefix
    p.add(90.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(p.percentile(50.0), 50.0);
    EXPECT_DOUBLE_EQ(p.percentile(100.0), 90.0);

    // Interleave against an oracle that sorts from scratch every query.
    PercentileTracker q;
    std::vector<double> oracle;
    for (int i = 0; i < 200; ++i) {
        double v = static_cast<double>((i * 7919) % 199);
        q.add(v);
        oracle.push_back(v);
        if (i % 17 == 0) {
            std::vector<double> sorted = oracle;
            std::sort(sorted.begin(), sorted.end());
            double rank = 0.95 * static_cast<double>(sorted.size() - 1);
            std::size_t lo = static_cast<std::size_t>(rank);
            std::size_t hi = std::min(lo + 1, sorted.size() - 1);
            double frac = rank - static_cast<double>(lo);
            double want = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            EXPECT_DOUBLE_EQ(q.percentile(95.0), want) << "at i=" << i;
        }
    }
}

TEST(AlignedAllocTest, CacheLineAlignedAtEverySize)
{
    // Every element is written, so a short block shows under ASan.
    base::AlignedAlloc<float> floats;
    base::AlignedAlloc<char, 8> chars8;
    base::AlignedAlloc<char, 4096> pages;
    for (std::size_t n = 1; n <= 4097; ++n) {
        float *f = floats.allocate(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f) % 64, 0u) << n;
        std::fill(f, f + n, 1.0f);
        floats.deallocate(f, n);

        char *c = chars8.allocate(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 8, 0u) << n;
        std::fill(c, c + n, 'x');
        chars8.deallocate(c, n);
    }
    for (std::size_t n : {1u, 4095u, 4096u, 4097u}) {
        char *c = pages.allocate(n);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 4096, 0u) << n;
        std::fill(c, c + n, 'y');
        pages.deallocate(c, n);
    }

    base::AlignedVec<double> v;
    for (int i = 0; i < 10000; ++i) {
        v.push_back(i);
        ASSERT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
    }
    EXPECT_EQ(v[9999], 9999.0);
}

TEST(PercentileTest, MatchesSortedVectorOnRandomData)
{
    // Bit-identical to interpolating over a sorted std::vector, with
    // adds and queries interleaved and enough samples to span many of
    // the tracker's storage chunks. Samples are sixteenths below 2^16
    // (with ties) and the quantiles dyadic, so every product in the
    // interpolation is exact and the comparison holds whether or not
    // the compiler fuses it into an FMA.
    Rng rng(42);
    PercentileTracker p;
    std::vector<double> ref;
    for (int i = 0; i < 20000; ++i) {
        double v = std::floor(rng.lognormalByMoments(100.0, 80.0) * 16.0) /
                   16.0;
        p.add(v);
        ref.push_back(v);
        if (i % 1999 != 0 && i != 19999)
            continue;
        std::vector<double> sorted = ref;
        std::sort(sorted.begin(), sorted.end());
        for (double q : {0.0, 12.5, 25.0, 50.0, 75.0, 87.5, 100.0}) {
            double rank = (q / 100.0) * static_cast<double>(sorted.size() - 1);
            std::size_t lo = static_cast<std::size_t>(rank);
            std::size_t hi = std::min(lo + 1, sorted.size() - 1);
            double frac = rank - static_cast<double>(lo);
            EXPECT_EQ(p.percentile(q),
                      sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
                << "p" << q << " after " << i + 1 << " samples";
        }
    }
    EXPECT_EQ(p.count(), ref.size());

    // On arbitrary doubles and quantiles the interpolation's rounding
    // shows: where the target has FMA it rounds once, after
    // samples[hi]·frac, whatever code surrounds it.
    PercentileTracker raw;
    std::vector<double> raw_ref;
    for (int i = 0; i < 5000; ++i) {
        raw_ref.push_back(rng.lognormalByMoments(1700.0, 40.0));
        raw.add(raw_ref.back());
    }
    std::sort(raw_ref.begin(), raw_ref.end());
    for (int k = 1; k < 200; ++k) {
        const double q = k * 0.4987;
        double rank = (q / 100.0) * static_cast<double>(raw_ref.size() - 1);
        std::size_t lo = static_cast<std::size_t>(rank);
        double frac = rank - static_cast<double>(lo);
        const double a = raw_ref[lo], b = raw_ref[lo + 1];
#if defined(__FP_FAST_FMA)
        const double want = std::fma(a, 1.0 - frac, b * frac);
#else
        const double want = a * (1.0 - frac) + b * frac;
#endif
        EXPECT_EQ(raw.percentile(q), want) << "p" << q;
    }
}

TEST(MovingAverageTest, Window)
{
    MovingAverage m(3);
    EXPECT_DOUBLE_EQ(m.value(), 0.0);
    m.add(3.0);
    m.add(6.0);
    EXPECT_FALSE(m.warm());
    EXPECT_DOUBLE_EQ(m.value(), 4.5);
    m.add(9.0);
    EXPECT_TRUE(m.warm());
    EXPECT_DOUBLE_EQ(m.value(), 6.0);
    m.add(12.0); // 3.0 falls out
    EXPECT_DOUBLE_EQ(m.value(), 9.0);
}

// Regression: the incremental sum_ accumulated float error; once a
// large outlier left the window the cancellation wiped out the small
// samples still in it. The tracker now periodically re-derives the sum
// from the window, so a long add sequence must match a fresh average.
TEST(MovingAverageTest, LongSequenceMatchesFreshWindowAverage)
{
    MovingAverage m(4);
    m.add(1e16); // beyond 2^53: 1e16 + 1.0 rounds back to 1e16
    std::deque<double> window = {1e16};
    for (int i = 0; i < 2000; ++i) {
        m.add(1.0);
        window.push_back(1.0);
        if (window.size() > 4)
            window.pop_front();
    }
    double fresh = 0.0;
    for (double v : window)
        fresh += v;
    fresh /= static_cast<double>(window.size());
    EXPECT_DOUBLE_EQ(fresh, 1.0);
    EXPECT_DOUBLE_EQ(m.value(), fresh);
}

TEST(BusyTrackerTest, WindowedUtilization)
{
    BusyTracker b;
    b.addBusy(0, 50);
    b.addBusy(100, 150);
    // Partial overlap first (probes must be monotone): window
    // [25, 125] covers 25 + 25 busy.
    EXPECT_NEAR(b.utilization(125, 100), 50.0, 1e-9);
    // Window [0, 200]: 100 busy of 200.
    EXPECT_NEAR(b.utilization(200, 200), 50.0, 1e-9);
    // Window [150, 200]: idle.
    EXPECT_NEAR(b.utilization(200, 50), 0.0, 1e-9);
    EXPECT_EQ(b.totalBusy(), 100u);
}

TEST(BusyTrackerTest, OutOfOrderSpans)
{
    BusyTracker b;
    b.addBusy(100, 200);
    b.addBusy(0, 50);
    EXPECT_NEAR(b.utilization(200, 200), 75.0, 1e-9);
}

// Window-edge behaviour of the utilization probe — the admission
// layer's load signal. Each case uses its own tracker so the
// monotone-probe contract and max-window compaction of one probe
// cannot leak into the next.
TEST(BusyTrackerTest, SpanEndingExactlyAtWindowEdgeIsExcluded)
{
    BusyTracker b;
    b.addBusy(100, 200);
    // Window [200, 300]: the span's half-open [100, 200) contributes
    // nothing at the boundary.
    EXPECT_NEAR(b.utilization(300, 100), 0.0, 1e-9);
}

TEST(BusyTrackerTest, SpanStartingExactlyAtProbeTimeIsExcluded)
{
    BusyTracker b;
    b.addBusy(100, 200);
    b.addBusy(300, 400);
    // Window [100, 300]: the first span is fully inside; the second
    // starts exactly at `now` and must not count.
    EXPECT_NEAR(b.utilization(300, 200), 50.0, 1e-9);
}

TEST(BusyTrackerTest, SpanStraddlingBothWindowEdges)
{
    BusyTracker b;
    b.addBusy(50, 450);
    // Window [100, 400] sits entirely inside one busy span.
    EXPECT_NEAR(b.utilization(400, 300), 100.0, 1e-9);
}

TEST(BusyTrackerTest, ZeroLengthSpansAreIgnored)
{
    BusyTracker b;
    b.addBusy(5, 5);
    EXPECT_EQ(b.spanCount(), 0u);
    EXPECT_EQ(b.totalBusy(), 0u);
    EXPECT_NEAR(b.utilization(10, 10), 0.0, 1e-9);
}

TEST(BusyTrackerTest, EmptyHistoryProbesZero)
{
    BusyTracker b;
    EXPECT_NEAR(b.utilization(100, 50), 0.0, 1e-9);
    EXPECT_EQ(b.totalBusy(), 0u);
}

TEST(BusyTrackerTest, WindowLargerThanElapsedClampsToTimeZero)
{
    BusyTracker b;
    b.addBusy(0, 10);
    // `now - window` would underflow; the window clamps to [0, 20].
    EXPECT_NEAR(b.utilization(20, 100), 50.0, 1e-9);
}

// Regression (ISSUE 7 wrap audit): the probe path compacts spans no
// *later* probe can see, so a backwards probe silently under-reports
// — the spans it should integrate are gone. That contract violation
// now panics instead of mis-measuring.
TEST(BusyTrackerDeathTest, NonMonotoneProbePanics)
{
    BusyTracker b;
    b.addBusy(0, 1000);
    b.utilization(2000, 100);
    EXPECT_DEATH(b.utilization(1000, 100),
                 "non-monotone utilization probe");
}

TEST(BusyTrackerTest, ResetRestartsProbeTimeline)
{
    BusyTracker b;
    b.addBusy(0, 1000);
    b.utilization(2000, 100);
    b.reset();
    // Benchmark repetitions reset tracker and clock together; probing
    // from zero again is legitimate after a reset.
    b.addBusy(0, 50);
    EXPECT_NEAR(b.utilization(100, 100), 50.0, 1e-9);
}

TEST(BusyTrackerTest, CompactDropsOldSpans)
{
    BusyTracker b;
    b.addBusy(0, 10);
    b.addBusy(100, 110);
    b.compact(50);
    EXPECT_NEAR(b.utilization(110, 10), 100.0, 1e-9);
    EXPECT_EQ(b.totalBusy(), 20u); // total is cumulative
}

// Regression: spans_ grew without bound (compact() had no caller) and
// every probe rescanned the full busy history. The probe path now
// drops spans older than the largest window ever asked for; values
// must match a naive full-history scan while memory stays bounded.
TEST(BusyTrackerTest, ProbePathBoundsMemoryWithoutChangingValues)
{
    BusyTracker b;
    std::vector<std::pair<Nanos, Nanos>> all; // naive reference
    const Nanos period = 10;
    const Nanos window = 1000;
    for (Nanos i = 0; i < 100000; ++i) {
        Nanos t = i * period;
        b.addBusy(t, t + 5);
        all.emplace_back(t, t + 5);
        if (i % 97 == 0) {
            Nanos now = t + period;
            Nanos lo = now > window ? now - window : 0;
            Nanos busy = 0;
            for (auto [s, e] : all) {
                if (e <= lo || s >= now)
                    continue;
                busy += std::min(e, now) - std::max(s, lo);
            }
            double want =
                100.0 * static_cast<double>(busy) / static_cast<double>(now - lo);
            EXPECT_DOUBLE_EQ(b.utilization(now, window), want) << "at i=" << i;
        }
    }
    // 100k spans were added; retained: those inside the largest probe
    // window plus whatever accumulated since the last probe (97 adds).
    EXPECT_LE(b.spanCount(), window / period + 97 + 2);
    EXPECT_EQ(b.totalBusy(), 100000u * 5u);
}

TEST(RateMeterTest, BucketsToRates)
{
    RateMeter m(1_s);
    m.record(100_ms, 10.0);
    m.record(900_ms, 20.0);
    m.record(1500_ms, 5.0);
    auto series = m.series();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[0].rate, 30.0);
    EXPECT_DOUBLE_EQ(series[1].rate, 5.0);
}

TEST(RingBufferTest, FifoAndOverwrite)
{
    RingBuffer<int> r(3);
    EXPECT_TRUE(r.empty());
    EXPECT_FALSE(r.push(1));
    EXPECT_FALSE(r.push(2));
    EXPECT_FALSE(r.push(3));
    EXPECT_TRUE(r.full());
    EXPECT_TRUE(r.push(4)); // overwrites 1
    EXPECT_EQ(r.front(), 2);
    EXPECT_EQ(r.back(), 4);
    EXPECT_EQ(r.pop(), 2);
    EXPECT_EQ(r.pop(), 3);
    EXPECT_EQ(r.pop(), 4);
    EXPECT_TRUE(r.empty());
}

TEST(RingBufferTest, Snapshot)
{
    RingBuffer<int> r(4);
    for (int i = 0; i < 6; ++i)
        r.push(i);
    auto snap = r.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front(), 2);
    EXPECT_EQ(snap.back(), 5);
}

TEST(RingBufferTest, ClearReleasesSlotResources)
{
    // Regression: clear() used to reset head/size only, leaving every
    // dead slot's T alive — a cleared registry ring kept all its
    // feature vectors' heap maps allocated until overwrite. Count live
    // allocations through weak_ptr expiry.
    RingBuffer<std::shared_ptr<int>> r(4);
    std::vector<std::weak_ptr<int>> live;
    for (int i = 0; i < 4; ++i) {
        auto sp = std::make_shared<int>(i);
        live.push_back(sp);
        r.push(std::move(sp));
    }
    for (const auto &w : live)
        EXPECT_FALSE(w.expired());

    r.clear();
    EXPECT_TRUE(r.empty());
    for (const auto &w : live)
        EXPECT_TRUE(w.expired());
}

TEST(RingBufferTest, PopReleasesSlotResources)
{
    RingBuffer<std::shared_ptr<int>> r(2);
    auto sp = std::make_shared<int>(1);
    std::weak_ptr<int> w = sp;
    r.push(std::move(sp));

    std::shared_ptr<int> out = r.pop();
    EXPECT_FALSE(w.expired()); // alive through the returned value only
    out.reset();
    EXPECT_TRUE(w.expired()); // the ring slot holds no residue
}

class RingBufferCapacityTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RingBufferCapacityTest, KeepsLastCapacityElements)
{
    std::size_t cap = GetParam();
    RingBuffer<std::size_t> r(cap);
    const std::size_t total = 1000;
    for (std::size_t i = 0; i < total; ++i)
        r.push(i);
    ASSERT_EQ(r.size(), std::min(cap, total));
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r.at(i), total - r.size() + i);
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingBufferCapacityTest,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 1000,
                                           1024));

// Every LAKE_* count knob parses through base::envCount: plain digits
// only. strtoull alone accepts "-1" (wrapping it to SIZE_MAX) and
// stops quietly at trailing garbage ("4x" -> 4).
TEST(EnvCountTest, AcceptsOnlyPlainDecimalCounts)
{
    ::setenv("LAKE_TEST_COUNT", "42", 1);
    EXPECT_EQ(base::envCount("LAKE_TEST_COUNT"), 42u);
    ::setenv("LAKE_TEST_COUNT", "0", 1);
    EXPECT_EQ(base::envCount("LAKE_TEST_COUNT"), 0u);
    for (const char *bad : {"", "-1", "+3", " 7", "4x", "0x10",
                            "99999999999999999999999"}) {
        ::setenv("LAKE_TEST_COUNT", bad, 1);
        EXPECT_EQ(base::envCount("LAKE_TEST_COUNT"), std::nullopt)
            << "'" << bad << "'";
        EXPECT_EQ(base::envCount("LAKE_TEST_COUNT", 5), 5u)
            << "'" << bad << "'";
    }
    ::unsetenv("LAKE_TEST_COUNT");
    EXPECT_EQ(base::envCount("LAKE_TEST_COUNT"), std::nullopt);
    EXPECT_EQ(base::envCount("LAKE_TEST_COUNT", 9), 9u);
}

TEST(EnvCountTest, MicrosRejectValuesWhoseNanosOverflow)
{
    ::setenv("LAKE_TEST_US", "18446744073709551", 1);
    EXPECT_EQ(base::envMicros("LAKE_TEST_US", 5), 18446744073709551000ull);
    // 2^64 + 384 ns: must not wrap to 384.
    for (const char *bad : {"18446744073709552", "-1", "4x", ""}) {
        ::setenv("LAKE_TEST_US", bad, 1);
        EXPECT_EQ(base::envMicros("LAKE_TEST_US", 5), 5u)
            << "'" << bad << "'";
    }
    ::unsetenv("LAKE_TEST_US");
    EXPECT_EQ(base::envMicros("LAKE_TEST_US", 7_us), 7_us);
}

TEST(StatusTest, CodesAndMessages)
{
    Status ok;
    EXPECT_TRUE(ok.isOk());
    EXPECT_EQ(ok.toString(), "OK");

    Status err(Code::NotFound, "missing thing");
    EXPECT_FALSE(err.isOk());
    EXPECT_EQ(err.code(), Code::NotFound);
    EXPECT_EQ(err.toString(), "NotFound: missing thing");
}

TEST(ResultTest, ValueAndError)
{
    Result<int> good(41);
    ASSERT_TRUE(good.isOk());
    EXPECT_EQ(good.value(), 41);

    Result<int> bad(Status(Code::Internal, "boom"));
    EXPECT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), Code::Internal);
}

} // namespace
} // namespace lake
