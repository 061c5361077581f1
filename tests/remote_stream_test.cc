// Tests for the streaming DMA orchestration layer (DESIGN.md §10):
// pool recycling with zero steady-state arena traffic, credit-based
// flow control that stalls in virtual time, multi-stream
// transfer/compute overlap, scatter-gather coalescing, the
// never-used-stream synchronize guarantee, the deferred-async-free
// ordering fix, and the arena-highwater fragmentation regression.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/lake.h"
#include "crypto/engines.h"
#include "gpu/context.h"
#include "gpu/kernels.h"
#include "gpu/spec.h"
#include "ml/backends.h"
#include "ml/gpu_kernels.h"
#include "obs/metrics.h"
#include "remote/streampool.h"

namespace lake {
namespace {

using gpu::CuResult;
using remote::StreamingConfig;
using remote::StreamOrchestrator;

constexpr std::size_t kExtent = 16 << 10;

StreamingConfig
testConfig(std::uint32_t streams, std::size_t pool_buffers,
           std::size_t class_bytes = kExtent,
           std::size_t size_classes = 1)
{
    StreamingConfig sc;
    sc.enabled = true;
    sc.streams = streams;
    sc.pool_buffers = pool_buffers;
    sc.class_bytes = class_bytes;
    sc.size_classes = size_classes;
    return sc;
}

/** Fixed-cost kernel so overlap tests have compute to hide copies
 *  behind. Registered once; the registry replaces on re-add. */
void
registerStreamTestKernel()
{
    gpu::KernelRegistry::global().add(
        "stream_cost",
        [](gpu::Device &, const gpu::LaunchConfig &) {
            return CuResult::Success;
        },
        [](const gpu::Device &, const gpu::LaunchConfig &) -> Nanos {
            return 10_us;
        });
}

/** One staged round trip: HtoD + stream_cost kernel + DtoH. */
void
stageRoundTrip(core::Lake &lake, StreamOrchestrator &orch,
               gpu::DevicePtr dev, gpu::StreamId s)
{
    StreamOrchestrator::Buffer *buf = orch.acquire(kExtent);
    ASSERT_NE(buf, nullptr);
    ASSERT_TRUE(orch.stageIn(buf, dev, kExtent, s).isOk());
    gpu::LaunchConfig launch;
    launch.kernel = "stream_cost";
    launch.grid_x = 16;
    launch.block_x = 256;
    launch.arg(dev).arg(kExtent, nullptr);
    lake.lib().cuLaunchKernel(launch, s);
    ASSERT_TRUE(orch.stageOut(buf, dev, kExtent, s).isOk());
}

// ---------------------------------------------------------------------
// Buffer pool: recycling, zero steady-state arena traffic
// ---------------------------------------------------------------------

TEST(StreamPoolTest, SteadyStatePerformsNoArenaOrAllocRpcs)
{
    registerStreamTestKernel();
    core::Lake lake;
    StreamOrchestrator orch(lake.lib(), lake.clock(), testConfig(2, 4));

    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, kExtent), CuResult::Success);

    obs::Metrics::global().reset();
    obs::Metrics::global().setEnabled(true);
    std::size_t live0 = lake.arena().liveAllocs();

    for (int i = 0; i < 50; ++i)
        stageRoundTrip(lake, orch, dev,
                       orch.streamAt(static_cast<std::uint64_t>(i)));
    EXPECT_EQ(orch.drain(), CuResult::Success);

    // The timed loop touched the arena zero times: no allocs, no
    // frees, no change in live allocations.
    EXPECT_EQ(obs::Metrics::global().shm_allocs.get(), 0u);
    EXPECT_EQ(obs::Metrics::global().shm_frees.get(), 0u);
    EXPECT_EQ(lake.arena().liveAllocs(), live0);
    obs::Metrics::global().setEnabled(false);

    // Every credit came home.
    EXPECT_EQ(orch.freeBuffers(), orch.totalBuffers());
    EXPECT_EQ(orch.stats().acquires, 50u);
    EXPECT_EQ(orch.stats().releases, orch.stats().acquires);
    EXPECT_EQ(orch.stats().stage_ins, 50u);
    EXPECT_EQ(orch.stats().stage_outs, 50u);
}

TEST(StreamPoolTest, CarveOutReturnsToArenaOnDestruction)
{
    core::Lake lake;
    std::size_t used0 = lake.arena().used();
    std::size_t live0 = lake.arena().liveAllocs();
    {
        StreamOrchestrator orch(lake.lib(), lake.clock(),
                                testConfig(2, 4, 4096, 2));
        EXPECT_EQ(orch.totalBuffers(), 8u); // 2 classes x 4 buffers
        EXPECT_GT(lake.arena().used(), used0);
    }
    EXPECT_EQ(lake.arena().used(), used0);
    EXPECT_EQ(lake.arena().liveAllocs(), live0);
}

TEST(StreamPoolTest, SizeClassesServeSmallestSufficientCapacity)
{
    core::Lake lake;
    StreamOrchestrator orch(lake.lib(), lake.clock(),
                            testConfig(1, 2, 1024, 3));

    StreamOrchestrator::Buffer *small = orch.acquire(100);
    ASSERT_NE(small, nullptr);
    EXPECT_EQ(small->capacity, 1024u);
    StreamOrchestrator::Buffer *mid = orch.acquire(1500);
    ASSERT_NE(mid, nullptr);
    EXPECT_EQ(mid->capacity, 2048u);
    StreamOrchestrator::Buffer *large = orch.acquire(4096);
    ASSERT_NE(large, nullptr);
    EXPECT_EQ(large->capacity, 4096u);
    // Nothing fits 5000 bytes: shed, not assert.
    EXPECT_EQ(orch.acquire(5000), nullptr);
    EXPECT_GE(orch.stats().sheds, 1u);

    orch.release(small);
    orch.release(mid);
    orch.release(large);
    EXPECT_EQ(orch.freeBuffers(), orch.totalBuffers());
}

// ---------------------------------------------------------------------
// Credit-based flow control
// ---------------------------------------------------------------------

TEST(StreamPoolTest, AcquireStallsInVirtualTimeWhenRingIsDry)
{
    registerStreamTestKernel();
    core::Lake lake;
    StreamOrchestrator orch(lake.lib(), lake.clock(), testConfig(1, 2));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, kExtent), CuResult::Success);

    // Stage both credits onto one stream; the third acquire must wait
    // for the oldest in-flight buffer's stream in virtual time.
    stageRoundTrip(lake, orch, dev, orch.streamAt(0));
    stageRoundTrip(lake, orch, dev, orch.streamAt(0));
    ASSERT_EQ(orch.stats().credit_stalls, 0u);

    Nanos t0 = lake.clock().now();
    StreamOrchestrator::Buffer *b = orch.acquire(kExtent);
    ASSERT_NE(b, nullptr);
    EXPECT_GE(orch.stats().credit_stalls, 1u);
    EXPECT_GT(lake.clock().now(), t0);
    EXPECT_GT(orch.stats().stalled_ns, 0u);

    orch.release(b);
    orch.drain();
}

TEST(StreamPoolTest, PoolBuffersClampedToStreamCount)
{
    core::Lake lake;
    // 8 streams but only 4 credits requested per class: with fewer
    // credits than streams, a stalled acquire() would recycle a buffer
    // whose stream the caller has not harvested yet. The constructor
    // clamps the credit budget up to the stream count.
    StreamOrchestrator orch(lake.lib(), lake.clock(), testConfig(8, 4));
    EXPECT_EQ(orch.config().pool_buffers, 8u);
    EXPECT_EQ(orch.totalBuffers(), 8u);
    // Enough credits is left alone.
    StreamOrchestrator deep(lake.lib(), lake.clock(), testConfig(2, 6));
    EXPECT_EQ(deep.config().pool_buffers, 6u);
}

TEST(StreamPoolTest, AcquireShedsWhenCallerHoldsEveryCredit)
{
    core::Lake lake;
    StreamOrchestrator orch(lake.lib(), lake.clock(), testConfig(1, 2));

    StreamOrchestrator::Buffer *a = orch.acquire(kExtent);
    StreamOrchestrator::Buffer *b = orch.acquire(kExtent);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    // Nothing is in flight, so blocking would deadlock: shed instead.
    EXPECT_EQ(orch.acquire(kExtent), nullptr);
    EXPECT_EQ(orch.tryAcquire(kExtent), nullptr);
    EXPECT_GE(orch.stats().sheds, 2u);

    orch.release(a);
    EXPECT_NE(orch.tryAcquire(kExtent), nullptr);
    orch.release(b);
}

// ---------------------------------------------------------------------
// Multi-stream pipelining
// ---------------------------------------------------------------------

/** Virtual time for @p items staged round trips on @p streams streams. */
Nanos
runStreamedWorkload(std::uint32_t streams, int items)
{
    registerStreamTestKernel();
    core::Lake lake;
    // Streaming rides the pipelined fast path: with one message per
    // command instead, channel cost dominates the caller's clock and
    // stream count barely matters.
    remote::PipelineConfig p;
    p.enabled = true;
    p.max_batch = 64;
    lake.lib().setPipeline(p);
    StreamOrchestrator orch(lake.lib(), lake.clock(),
                            testConfig(streams, 2 * streams));
    std::vector<gpu::DevicePtr> dev(streams, 0);
    for (auto &d : dev)
        EXPECT_EQ(lake.lib().cuMemAlloc(&d, kExtent), CuResult::Success);

    Nanos t0 = lake.clock().now();
    for (int i = 0; i < items; ++i) {
        std::uint32_t k = static_cast<std::uint32_t>(i) % streams;
        stageRoundTrip(lake, orch, dev[k], orch.streamAt(k));
    }
    orch.drain();
    return lake.clock().now() - t0;
}

TEST(StreamPoolTest, MultiStreamOverlapBeatsSingleStream)
{
    Nanos one = runStreamedWorkload(1, 32);
    Nanos four = runStreamedWorkload(4, 32);
    // Four streams overlap HtoD(i+1) with kernel(i) with DtoH(i-1);
    // one stream serializes them per item.
    EXPECT_LT(four, one);
    EXPECT_GT(static_cast<double>(one) / static_cast<double>(four), 1.2);
}

TEST(StreamPoolTest, StreamsRoundRobinAboveTheDefaultStream)
{
    core::Lake lake;
    StreamOrchestrator orch(lake.lib(), lake.clock(), testConfig(3, 3));
    // Stream 0 is left to legacy default-stream traffic.
    EXPECT_EQ(orch.streamAt(0), StreamOrchestrator::kStreamBase);
    EXPECT_EQ(orch.streamAt(3), StreamOrchestrator::kStreamBase);
    EXPECT_EQ(orch.streamAt(5), StreamOrchestrator::kStreamBase + 2);
    EXPECT_EQ(orch.nextStream(), StreamOrchestrator::kStreamBase);
    EXPECT_EQ(orch.nextStream(), StreamOrchestrator::kStreamBase + 1);
    EXPECT_EQ(orch.nextStream(), StreamOrchestrator::kStreamBase + 2);
    EXPECT_EQ(orch.nextStream(), StreamOrchestrator::kStreamBase);
}

// ---------------------------------------------------------------------
// Scatter-gather submission
// ---------------------------------------------------------------------

TEST(StreamPoolTest, GatherInCoalescesIntoOneCopyAndIsBitExact)
{
    core::Lake lake;
    StreamOrchestrator orch(lake.lib(), lake.clock(),
                            testConfig(1, 2, 4096));

    constexpr std::size_t kVecs = 16;
    constexpr std::size_t kVecBytes = 124;
    std::vector<std::vector<std::uint8_t>> vecs(kVecs);
    const void *srcs[kVecs];
    std::size_t lens[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
        vecs[v].resize(kVecBytes);
        for (std::size_t i = 0; i < kVecBytes; ++i)
            vecs[v][i] = static_cast<std::uint8_t>(v * 31 + i);
        srcs[v] = vecs[v].data();
        lens[v] = kVecBytes;
    }

    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, kVecs * kVecBytes),
              CuResult::Success);
    StreamOrchestrator::Buffer *buf = orch.acquire(kVecs * kVecBytes);
    ASSERT_NE(buf, nullptr);

    gpu::StreamId s = orch.streamAt(0);
    std::uint64_t calls0 = lake.lib().calls();
    ASSERT_TRUE(orch.gatherIn(buf, dev, srcs, lens, kVecs, s).isOk());
    // The whole batch went up as ONE strided copy.
    EXPECT_EQ(lake.lib().calls() - calls0, 1u);
    EXPECT_EQ(orch.stats().gathers, 1u);
    EXPECT_EQ(orch.stats().gathered_vectors, kVecs);
    ASSERT_EQ(orch.syncStream(s), CuResult::Success);

    // Read the device bytes back and compare with the concatenation.
    shm::ShmOffset check = lake.arena().alloc(kVecs * kVecBytes);
    ASSERT_NE(check, shm::kNullOffset);
    ASSERT_EQ(lake.lib().cuMemcpyDtoHShm(check, dev, kVecs * kVecBytes),
              CuResult::Success);
    const auto *got =
        static_cast<const std::uint8_t *>(lake.arena().at(check));
    for (std::size_t v = 0; v < kVecs; ++v)
        EXPECT_EQ(std::memcmp(got + v * kVecBytes, vecs[v].data(),
                              kVecBytes),
                  0)
            << "vector " << v;
    lake.arena().free(check);
}

// ---------------------------------------------------------------------
// Read-after-sync window
// ---------------------------------------------------------------------

TEST(StreamPoolTest, RetiredBufferReadableUntilNextAcquire)
{
    core::Lake lake;
    StreamOrchestrator orch(lake.lib(), lake.clock(), testConfig(1, 2));
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, kExtent), CuResult::Success);

    // Upload a pattern, then stage it back out through a pooled slot.
    std::vector<std::uint8_t> pattern(kExtent);
    for (std::size_t i = 0; i < kExtent; ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 13 + 5);
    ASSERT_EQ(lake.lib().cuMemcpyHtoD(dev, pattern.data(), kExtent),
              CuResult::Success);

    StreamOrchestrator::Buffer *buf = orch.acquire(kExtent);
    ASSERT_NE(buf, nullptr);
    gpu::StreamId s = orch.streamAt(0);
    ASSERT_TRUE(orch.stageOut(buf, dev, kExtent, s).isOk());
    ASSERT_EQ(orch.syncStream(s), CuResult::Success);

    // buf is back in the ring, but per the §10 contract its bytes stay
    // valid until the next acquire of the class.
    EXPECT_EQ(std::memcmp(lake.arena().at(buf->shm), pattern.data(),
                          kExtent),
              0);
}

// ---------------------------------------------------------------------
// Satellite 2: synchronizing never-used streams
// ---------------------------------------------------------------------

TEST(StreamSyncTest, NeverUsedStreamSyncDoesNotGrowTracking)
{
    core::Lake lake;
    gpu::GpuContext &ctx = lake.daemon().gpuContext();
    std::size_t tracked0 = ctx.trackedStreams();

    for (gpu::StreamId s : {7u, 123u, 4096u, 0xfffffffeu}) {
        EXPECT_EQ(lake.lib().cuStreamSynchronize(s), CuResult::Success);
        EXPECT_EQ(ctx.trackedStreams(), tracked0);
    }

    // Real queued work still creates exactly one timeline entry.
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 4096), CuResult::Success);
    shm::ShmOffset off = lake.arena().alloc(4096);
    ASSERT_NE(off, shm::kNullOffset);
    ASSERT_EQ(lake.lib().cuMemcpyHtoDShmAsync(dev, off, 4096, 5),
              CuResult::Success);
    ASSERT_EQ(lake.lib().cuStreamSynchronize(5), CuResult::Success);
    EXPECT_EQ(ctx.trackedStreams(), tracked0 + 1);
    lake.arena().free(off);
}

// ---------------------------------------------------------------------
// Satellite 6: deferred async frees order after the owning stream
// ---------------------------------------------------------------------

TEST(DeferredFreeTest, AsyncFreeWaitsForOwningStreamToDrain)
{
    gpu::Device device(gpu::DeviceSpec::a100());
    Clock clock;
    gpu::GpuContext ctx(device, clock);

    constexpr std::size_t kBytes = 1 << 20;
    gpu::DevicePtr p = 0;
    ASSERT_EQ(ctx.memAlloc(&p, kBytes), CuResult::Success);
    std::size_t used = device.memUsed();

    // Queue a long copy on stream 3, then free the buffer it reads.
    std::vector<std::uint8_t> host(kBytes, 0x77);
    ASSERT_EQ(ctx.memcpyHtoDAsync(p, host.data(), kBytes, 3),
              CuResult::Success);
    ASSERT_EQ(ctx.memFreeAsync(p), CuResult::Success);

    // The allocation must survive until stream 3 drains: freeing at
    // dispatch time would recycle the block mid-transfer (virtual-time
    // use-after-free).
    EXPECT_EQ(ctx.pendingFrees(), 1u);
    EXPECT_EQ(device.memUsed(), used);

    ASSERT_EQ(ctx.streamSynchronize(3), CuResult::Success);
    EXPECT_EQ(ctx.pendingFrees(), 0u);
    EXPECT_EQ(device.memUsed(), used - kBytes);
}

TEST(DeferredFreeTest, InteriorPointerOwnershipOrdersTheFree)
{
    gpu::Device device(gpu::DeviceSpec::a100());
    Clock clock;
    gpu::GpuContext ctx(device, clock);

    constexpr std::size_t kBytes = 64 << 10;
    gpu::DevicePtr p = 0;
    ASSERT_EQ(ctx.memAlloc(&p, kBytes), CuResult::Success);
    std::size_t used = device.memUsed();

    // The in-flight copy targets an interior offset; ownership is
    // tracked by allocation base, so the free still defers.
    std::vector<std::uint8_t> host(1024, 0x12);
    ASSERT_EQ(ctx.memcpyHtoDAsync(p + 4096, host.data(), host.size(), 2),
              CuResult::Success);
    ASSERT_EQ(ctx.memFreeAsync(p), CuResult::Success);
    EXPECT_EQ(ctx.pendingFrees(), 1u);
    EXPECT_EQ(device.memUsed(), used);

    ASSERT_EQ(ctx.ctxSynchronize(), CuResult::Success);
    EXPECT_EQ(ctx.pendingFrees(), 0u);
    EXPECT_EQ(device.memUsed(), used - kBytes);
}

TEST(DeferredFreeTest, DoubleAsyncFreeIsReportedWhileFirstIsPending)
{
    gpu::Device device(gpu::DeviceSpec::a100());
    Clock clock;
    gpu::GpuContext ctx(device, clock);

    constexpr std::size_t kBytes = 1 << 20;
    gpu::DevicePtr p = 0;
    ASSERT_EQ(ctx.memAlloc(&p, kBytes), CuResult::Success);
    std::size_t used = device.memUsed();

    std::vector<std::uint8_t> host(kBytes, 0x55);
    ASSERT_EQ(ctx.memcpyHtoDAsync(p, host.data(), kBytes, 3),
              CuResult::Success);
    ASSERT_EQ(ctx.memFreeAsync(p), CuResult::Success);
    ASSERT_EQ(ctx.pendingFrees(), 1u);

    // The second free of the same pointer must fail like the eventual
    // device free would, not queue a duplicate that runDueFrees later
    // discards silently.
    EXPECT_EQ(ctx.memFreeAsync(p), CuResult::InvalidValue);
    EXPECT_EQ(ctx.pendingFrees(), 1u);

    ASSERT_EQ(ctx.streamSynchronize(3), CuResult::Success);
    EXPECT_EQ(ctx.pendingFrees(), 0u);
    EXPECT_EQ(device.memUsed(), used - kBytes);
}

TEST(LaunchArgTest, ScalarArgsBelowVaBaseNeverPinAllocations)
{
    gpu::Device device(gpu::DeviceSpec::a100());
    Clock clock;
    gpu::GpuContext ctx(device, clock);

    gpu::DevicePtr a = 0, b = 0, c = 0;
    constexpr std::size_t kN = 1024;
    ASSERT_EQ(ctx.memAlloc(&a, kN * 4), CuResult::Success);
    ASSERT_EQ(ctx.memAlloc(&b, kN * 4), CuResult::Success);
    ASSERT_EQ(ctx.memAlloc(&c, kN * 4), CuResult::Success);
    EXPECT_GE(a, gpu::Device::kVaBase);

    // Pin c to stream 9 with a launch whose scalar arg (kN) sits far
    // below the VA base: only the genuine device pointers may touch
    // ownership, so a later free of c defers behind stream 9 while the
    // scalar pins nothing.
    gpu::LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.grid_x = 4;
    cfg.block_x = 256;
    cfg.arg(a).arg(b).arg(c).arg(kN, nullptr);
    ASSERT_EQ(ctx.launchKernel(cfg, 9), CuResult::Success);

    ASSERT_EQ(ctx.memFreeAsync(c), CuResult::Success);
    EXPECT_EQ(ctx.pendingFrees(), 1u);
    ASSERT_EQ(ctx.streamSynchronize(9), CuResult::Success);
    EXPECT_EQ(ctx.pendingFrees(), 0u);
}

TEST(DeferredFreeTest, UnknownPointerFailsImmediately)
{
    gpu::Device device(gpu::DeviceSpec::a100());
    Clock clock;
    gpu::GpuContext ctx(device, clock);
    EXPECT_EQ(ctx.memFreeAsync(0xdead000), CuResult::InvalidValue);
    EXPECT_EQ(ctx.pendingFrees(), 0u);
}

TEST(DeferredFreeTest, PipelinedDeferredFreeSurvivesInFlightCopy)
{
    core::Lake lake;
    remote::PipelineConfig p;
    p.enabled = true;
    p.max_batch = 64;
    p.defer_frees = true;
    lake.lib().setPipeline(p);

    std::size_t used0 = lake.device().memUsed();
    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, kExtent), CuResult::Success);
    shm::ShmOffset off = lake.arena().alloc(kExtent);
    ASSERT_NE(off, shm::kNullOffset);
    std::memset(lake.arena().at(off), 0x42, kExtent);

    // Copy in flight on stream 2, then a deferred free riding the same
    // batch; the daemon must execute the free after the copy completes
    // on the stream timeline, and the next sync reports no error.
    ASSERT_EQ(lake.lib().cuMemcpyHtoDShmAsync(dev, off, kExtent, 2),
              CuResult::Success);
    ASSERT_EQ(lake.lib().cuMemFree(dev), CuResult::Success);
    EXPECT_EQ(lake.lib().cuStreamSynchronize(2), CuResult::Success);
    EXPECT_EQ(lake.daemon().gpuContext().pendingFrees(), 0u);
    EXPECT_EQ(lake.device().memUsed(), used0);
    lake.arena().free(off);
}

// ---------------------------------------------------------------------
// Satellite 1: carve-out cycles never fragment the arena
// ---------------------------------------------------------------------

TEST(ArenaHighwaterTest, PoolCarveCyclesHoldHighwaterFlat)
{
    core::Lake lake;
    std::size_t hw = 0;
    for (int cycle = 0; cycle < 8; ++cycle) {
        // A scratch allocation alongside the pool, as real callers do.
        shm::ShmOffset scratch = lake.arena().alloc(4096);
        ASSERT_NE(scratch, shm::kNullOffset);
        {
            StreamOrchestrator orch(lake.lib(), lake.clock(),
                                    testConfig(2, 4, 8192, 2));
            StreamOrchestrator::Buffer *b = orch.acquire(8192);
            ASSERT_NE(b, nullptr);
            orch.release(b);
        }
        lake.arena().free(scratch);
        if (cycle == 0)
            hw = lake.arena().highwater();
        // Coalescing must hand the next cycle the same offsets: any
        // growth means the carve-out crept upward through a
        // fragmented free list.
        EXPECT_EQ(lake.arena().highwater(), hw) << "cycle " << cycle;
    }
    EXPECT_GT(hw, 0u);
}

// ---------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------

TEST(StreamingConfigTest, ApplyEnvDrivesTheMasterSwitch)
{
    StreamingConfig sc;
    ASSERT_FALSE(sc.enabled);

    ::setenv("LAKE_STREAMS", "8", 1);
    ::setenv("LAKE_POOL_BUFFERS", "16", 1);
    ::setenv("LAKE_POOL_CLASS_BYTES", "131072", 1);
    sc.applyEnv();
    EXPECT_TRUE(sc.enabled);
    EXPECT_EQ(sc.streams, 8u);
    EXPECT_EQ(sc.pool_buffers, 16u);
    EXPECT_EQ(sc.class_bytes, 131072u);

    ::setenv("LAKE_STREAMS", "0", 1);
    sc.applyEnv();
    EXPECT_FALSE(sc.enabled);

    ::unsetenv("LAKE_STREAMS");
    ::unsetenv("LAKE_POOL_BUFFERS");
    ::unsetenv("LAKE_POOL_CLASS_BYTES");
    StreamingConfig untouched;
    untouched.applyEnv();
    EXPECT_FALSE(untouched.enabled);
}

TEST(StreamingConfigTest, MalformedStreamsValueIsIgnored)
{
    // An unparsable LAKE_STREAMS must not flip the master switch via
    // the numeric fallback — a typo would silently enable streaming.
    // That includes a sign ("-1" used to wrap to 4294967295 streams)
    // and trailing garbage ("4x" used to enable 4 streams).
    for (const char *bad : {"abc", "-1", "4x"}) {
        ::setenv("LAKE_STREAMS", bad, 1);
        StreamingConfig sc;
        sc.applyEnv();
        EXPECT_FALSE(sc.enabled) << "'" << bad << "'";
        EXPECT_EQ(sc.streams, 4u) << "'" << bad << "'";
    }

    // ...and must not disable (or re-size) an explicitly enabled one.
    StreamingConfig on;
    on.enabled = true;
    on.streams = 2;
    on.applyEnv();
    EXPECT_TRUE(on.enabled);
    EXPECT_EQ(on.streams, 2u);
    ::unsetenv("LAKE_STREAMS");
}

TEST(StreamingConfigTest, LakeConstructsOrchestratorOnlyWhenEnabled)
{
    core::Lake plain;
    EXPECT_EQ(plain.streaming(), nullptr);

    core::LakeConfig cfg;
    cfg.streaming.enabled = true;
    cfg.streaming.streams = 2;
    cfg.streaming.pool_buffers = 2;
    cfg.streaming.class_bytes = 4096;
    cfg.streaming.size_classes = 1;
    core::Lake lake(cfg);
    ASSERT_NE(lake.streaming(), nullptr);
    EXPECT_EQ(lake.streaming()->streams(), 2u);
    EXPECT_EQ(lake.streaming()->totalBuffers(), 2u);
}

// ---- streaming consumers: result parity with the serial paths --------

TEST(StreamedConsumersTest, StreamedClassifyMatchesSerialClassify)
{
    ml::registerMlKernels();
    core::LakeConfig cfg;
    cfg.streaming.enabled = true;
    core::Lake lake(cfg);
    ASSERT_NE(lake.streaming(), nullptr);

    Rng rng(7);
    ml::Mlp net(ml::MlpConfig::linnos(), rng);
    // Odd batch size: the last per-stream chunk is ragged.
    ml::Matrix x(37, 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));

    ml::LakeMlp serial(net, lake.lib(), /*sync_copy=*/false, 64);
    std::vector<int> want = serial.classify(x);
    EXPECT_EQ(want, net.classify(x));

    ml::LakeMlp streamed(net, lake.lib(), /*sync_copy=*/false, 64);
    streamed.enableStreaming(lake.streaming());
    Result<std::vector<int>> got = streamed.tryClassify(x);
    ASSERT_TRUE(got.isOk()) << got.status().message();
    EXPECT_EQ(got.value(), want);
}

TEST(StreamedConsumersTest, StreamedCipherBatchRoundTripsAndAuths)
{
    core::LakeConfig cfg;
    cfg.streaming.enabled = true;
    core::Lake lake(cfg);
    ASSERT_NE(lake.streaming(), nullptr);

    std::uint8_t key[32];
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i * 7 + 3);

    constexpr std::size_t kN = 9;
    constexpr std::size_t kLen = 4096;

    crypto::LakeGpuCipher serial(key, 32, lake.lib(), kLen);
    crypto::LakeGpuCipher streamed(key, 32, lake.lib(), kLen);
    EXPECT_FALSE(streamed.batched());
    streamed.enableStreaming(lake.streaming());
    EXPECT_TRUE(streamed.batched());

    std::vector<std::uint8_t> plain(kN * kLen);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 13 + 5);
    std::vector<std::uint8_t> ivs(kN * crypto::kGcmIvBytes);
    for (std::size_t i = 0; i < ivs.size(); ++i)
        ivs[i] = static_cast<std::uint8_t>(i);

    std::vector<std::uint8_t> cipher(kN * kLen);
    std::vector<crypto::ExtentOp> enc(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        enc[i].iv = &ivs[i * crypto::kGcmIvBytes];
        enc[i].in = &plain[i * kLen];
        enc[i].len = kLen;
        enc[i].out = &cipher[i * kLen];
    }
    streamed.encryptBatch(enc.data(), kN);

    // Bit-exact with the per-extent serial engine, tag included.
    for (std::size_t i = 0; i < kN; ++i) {
        std::vector<std::uint8_t> ref(kLen);
        std::uint8_t ref_tag[crypto::kGcmTagBytes];
        serial.encryptExtent(enc[i].iv, enc[i].in, kLen, ref.data(),
                             ref_tag);
        EXPECT_EQ(std::memcmp(enc[i].out, ref.data(), kLen), 0)
            << "extent " << i;
        EXPECT_EQ(std::memcmp(enc[i].tag, ref_tag,
                              crypto::kGcmTagBytes),
                  0)
            << "extent " << i;
    }

    std::vector<std::uint8_t> back(kN * kLen);
    std::vector<crypto::ExtentOp> dec(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        dec[i].iv = &ivs[i * crypto::kGcmIvBytes];
        dec[i].in = &cipher[i * kLen];
        dec[i].len = kLen;
        dec[i].out = &back[i * kLen];
        std::memcpy(dec[i].tag, enc[i].tag, crypto::kGcmTagBytes);
    }
    ASSERT_TRUE(streamed.decryptBatch(dec.data(), kN));
    EXPECT_EQ(back, plain);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_TRUE(dec[i].ok);

    // A tampered tag fails exactly that extent's authentication.
    dec[3].tag[0] ^= 0xff;
    EXPECT_FALSE(streamed.decryptBatch(dec.data(), kN));
    EXPECT_FALSE(dec[3].ok);
    EXPECT_TRUE(dec[2].ok);
    EXPECT_TRUE(dec[4].ok);
}

// Regression: streams > requested pool_buffers. Before the constructor
// clamp, the 5th in-flight item's acquire() hit a credit stall whose
// forced sync retired — and immediately re-issued — the oldest staged
// buffer, overwriting results the caller had not read yet (silently
// corrupted ciphertext/tags/labels, no error).
TEST(StreamedConsumersTest, MoreStreamsThanRequestedCreditsStaysExact)
{
    ml::registerMlKernels();
    core::LakeConfig cfg;
    cfg.streaming.enabled = true;
    cfg.streaming.streams = 8;
    cfg.streaming.pool_buffers = 4;
    core::Lake lake(cfg);
    ASSERT_NE(lake.streaming(), nullptr);
    ASSERT_GE(lake.streaming()->config().pool_buffers, 8u);

    // Cipher: enough extents to wrap the 8 streams twice.
    std::uint8_t key[32];
    for (int i = 0; i < 32; ++i)
        key[i] = static_cast<std::uint8_t>(i * 11 + 1);
    constexpr std::size_t kN = 19;
    constexpr std::size_t kLen = 4096;

    crypto::LakeGpuCipher serial(key, 32, lake.lib(), kLen);
    crypto::LakeGpuCipher streamed(key, 32, lake.lib(), kLen);
    streamed.enableStreaming(lake.streaming());

    std::vector<std::uint8_t> plain(kN * kLen);
    for (std::size_t i = 0; i < plain.size(); ++i)
        plain[i] = static_cast<std::uint8_t>(i * 131 + 17);
    std::vector<std::uint8_t> ivs(kN * crypto::kGcmIvBytes);
    for (std::size_t i = 0; i < ivs.size(); ++i)
        ivs[i] = static_cast<std::uint8_t>(i * 3);

    std::vector<std::uint8_t> cipher(kN * kLen);
    std::vector<crypto::ExtentOp> enc(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        enc[i].iv = &ivs[i * crypto::kGcmIvBytes];
        enc[i].in = &plain[i * kLen];
        enc[i].len = kLen;
        enc[i].out = &cipher[i * kLen];
    }
    streamed.encryptBatch(enc.data(), kN);

    for (std::size_t i = 0; i < kN; ++i) {
        std::vector<std::uint8_t> ref(kLen);
        std::uint8_t ref_tag[crypto::kGcmTagBytes];
        serial.encryptExtent(enc[i].iv, enc[i].in, kLen, ref.data(),
                             ref_tag);
        EXPECT_EQ(std::memcmp(enc[i].out, ref.data(), kLen), 0)
            << "extent " << i;
        EXPECT_EQ(std::memcmp(enc[i].tag, ref_tag,
                              crypto::kGcmTagBytes),
                  0)
            << "extent " << i;
    }

    // MLP: a batch wide enough that all 8 chunks stage concurrently.
    Rng rng(23);
    ml::Mlp net(ml::MlpConfig::linnos(), rng);
    ml::Matrix x(37, 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));

    ml::LakeMlp mlp(net, lake.lib(), /*sync_copy=*/false, 64);
    mlp.enableStreaming(lake.streaming());
    Result<std::vector<int>> got = mlp.tryClassify(x);
    ASSERT_TRUE(got.isOk()) << got.status().message();
    EXPECT_EQ(got.value(), net.classify(x));
}

} // namespace
} // namespace lake
