// Tests for the hardened remoting path (ISSUE 2): deterministic fault
// injection, Status-based error propagation in lakeLib, retry with
// backoff, degraded-mode fallback to CPU-only policies, the malformed-
// command corpus lakeD must reject, and the Fig. 7-style end-to-end run
// under seeded channel faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "base/rng.h"
#include "channel/fault.h"
#include "core/lake.h"
#include "gpu/context.h"
#include "gpu/device.h"
#include "ml/gpu_kernels.h"
#include "ml/lstm.h"
#include "ml/backends.h"
#include "remote/streampool.h"
#include "remote/wire.h"
#include "storage/e2e.h"
#include "storage/linnos.h"

namespace lake {
namespace {

using channel::FaultInjector;
using channel::FaultSpec;
using gpu::CuResult;
using remote::ApiId;
using remote::Encoder;
using remote::makeCommand;
using Dir = channel::Channel::Dir;

// ---------------------------------------------------------------------
// FaultInjector unit behaviour
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedReplaysIdentically)
{
    FaultSpec spec;
    spec.seed = 1234;
    spec.drop = 0.2;
    spec.truncate = 0.2;
    spec.bitflip = 0.2;
    spec.duplicate = 0.2;
    spec.delay = 0.1;

    FaultInjector a(spec), b(spec);
    Rng payload_rng(7);
    for (int i = 0; i < 500; ++i) {
        std::vector<std::uint8_t> pa(16 + i % 48);
        for (auto &byte : pa)
            byte = static_cast<std::uint8_t>(payload_rng.uniformInt(0, 255));
        std::vector<std::uint8_t> pb = pa;

        FaultInjector::Outcome oa = a.apply(i % 2 == 0, pa);
        FaultInjector::Outcome ob = b.apply(i % 2 == 0, pb);
        ASSERT_EQ(oa.drop, ob.drop);
        ASSERT_EQ(oa.duplicate, ob.duplicate);
        ASSERT_EQ(oa.extra_delay, ob.extra_delay);
        ASSERT_EQ(pa, pb);
    }
    EXPECT_EQ(a.injected(), b.injected());
    EXPECT_GT(a.injected(), 0u);
    EXPECT_EQ(a.seen(), 500u);
}

TEST(FaultInjectorTest, DisarmedInjectorIsInvisible)
{
    FaultSpec spec;
    spec.drop = 1.0;
    FaultInjector inj(spec);
    inj.disarm();

    std::vector<std::uint8_t> payload{1, 2, 3};
    std::vector<std::uint8_t> orig = payload;
    FaultInjector::Outcome o = inj.apply(true, payload);
    EXPECT_FALSE(o.drop);
    EXPECT_FALSE(o.duplicate);
    EXPECT_EQ(o.extra_delay, 0);
    EXPECT_EQ(payload, orig);
    EXPECT_EQ(inj.seen(), 0u);
}

TEST(FaultInjectorTest, DirectionGatesApply)
{
    FaultSpec spec;
    spec.drop = 1.0;
    spec.kernel_to_user = false; // commands pass untouched
    spec.user_to_kernel = true;  // responses always dropped
    FaultInjector inj(spec);

    std::vector<std::uint8_t> payload{1};
    EXPECT_FALSE(inj.apply(true, payload).drop);
    EXPECT_TRUE(inj.apply(false, payload).drop);
}

// ---------------------------------------------------------------------
// lakeLib Status propagation under injected faults
// ---------------------------------------------------------------------

TEST(LakeLibFaultTest, DroppedMessagesBecomeTimeoutNotPanic)
{
    core::Lake lake;
    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);

    Nanos t0 = lake.clock().now();
    gpu::DevicePtr p = 0;
    EXPECT_EQ(lake.lib().cuMemAlloc(&p, 4096), CuResult::Unavailable);
    // The caller blocked out its virtual-time deadline.
    EXPECT_GE(lake.clock().now() - t0,
              lake.lib().responseTimeout(16));
    EXPECT_GE(lake.lib().faultsSeen(), 1u);
    EXPECT_GT(lake.channel().faults()->dropped(), 0u);
}

TEST(LakeLibFaultTest, DuplicatedResponsesAreDrained)
{
    core::Lake lake;
    gpu::DevicePtr p = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&p, 4096), CuResult::Success);

    // Duplicate every *response*; commands travel clean so the daemon
    // never executes anything twice.
    FaultSpec spec;
    spec.duplicate = 1.0;
    spec.kernel_to_user = false;
    lake.channel().installFaults(spec);

    std::vector<std::uint8_t> buf(512, 0x5a);
    EXPECT_EQ(lake.lib().cuMemcpyHtoD(p, buf.data(), buf.size()),
              CuResult::Success);
    // The stale duplicate left in the queue must not satisfy (or
    // confuse) the next call.
    EXPECT_EQ(lake.lib().cuMemcpyHtoD(p, buf.data(), buf.size()),
              CuResult::Success);
    EXPECT_GT(lake.channel().faults()->duplicated(), 0u);
}

TEST(LakeLibFaultTest, TruncatedResponsesSurfaceAsErrors)
{
    core::Lake lake;
    gpu::DevicePtr p = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&p, 4096), CuResult::Success);

    FaultSpec spec;
    spec.truncate = 1.0;
    spec.kernel_to_user = false; // only responses are damaged
    lake.channel().installFaults(spec);

    std::vector<std::uint8_t> buf(64);
    CuResult r = lake.lib().cuMemcpyDtoH(buf.data(), p, buf.size());
    EXPECT_NE(r, CuResult::Success);
    EXPECT_GT(lake.channel().faults()->truncated(), 0u);
    EXPECT_GE(lake.lib().faultsSeen(), 1u);
}

TEST(LakeLibFaultTest, BitFlippedTrafficNeverPanics)
{
    core::Lake lake;
    gpu::DevicePtr p = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&p, 4096), CuResult::Success);

    FaultSpec spec;
    spec.bitflip = 1.0;
    lake.channel().installFaults(spec);

    // Every command and response has one random bit flipped; whatever
    // the decoders make of it, both sides must survive and the caller
    // must get *a* CuResult.
    for (int i = 0; i < 20; ++i) {
        remote::RemoteUtilization util;
        (void)lake.lib().nvmlGetUtilization(&util);
    }
    EXPECT_GT(lake.channel().faults()->flipped(), 0u);
}

TEST(LakeLibFaultTest, RetryRecoversFromTransientDrops)
{
    core::LakeConfig config;
    config.retry.max_attempts = 4;
    core::Lake lake(config);
    gpu::DevicePtr p = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&p, 4096), CuResult::Success);

    FaultSpec spec;
    spec.seed = 99;
    spec.drop = 0.5;
    lake.channel().installFaults(spec);

    std::vector<std::uint8_t> buf(128, 0x11);
    int ok = 0;
    for (int i = 0; i < 20; ++i)
        ok += lake.lib().cuMemcpyHtoD(p, buf.data(), buf.size()) ==
                      CuResult::Success
                  ? 1
                  : 0;
    // With 4 attempts against 50% drop, most calls pull through — and
    // only via actual retries.
    EXPECT_GT(ok, 10);
    EXPECT_GT(lake.lib().retries(), 0u);
    EXPECT_GT(lake.lib().faultsSeen(), 0u);
}

TEST(LakeLibFaultTest, NonIdempotentCallsDoNotRetry)
{
    core::LakeConfig config;
    config.retry.max_attempts = 5;
    core::Lake lake(config);

    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);

    std::uint64_t retries_before = lake.lib().retries();
    gpu::DevicePtr p = 0;
    // cuMemAlloc must fail fast: a lost response would leak the
    // daemon-side block on every extra attempt.
    EXPECT_EQ(lake.lib().cuMemAlloc(&p, 64), CuResult::Unavailable);
    EXPECT_EQ(lake.lib().retries(), retries_before);
}

// ---------------------------------------------------------------------
// Degraded mode: repeated failures flip policies to CPU-only
// ---------------------------------------------------------------------

TEST(DegradedModeTest, ConsecutiveFailuresLatchDegraded)
{
    core::Lake lake;
    ASSERT_FALSE(lake.degraded());

    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);

    gpu::DevicePtr p = 0;
    for (std::size_t i = 0; i < lake.config().degrade_threshold; ++i)
        EXPECT_EQ(lake.lib().cuMemAlloc(&p, 64), CuResult::Unavailable);
    EXPECT_TRUE(lake.degraded());
    EXPECT_TRUE(lake.remoteStats().degraded);

    lake.resetDegraded();
    EXPECT_FALSE(lake.degraded());
}

TEST(DegradedModeTest, SuccessResetsTheFailureStreak)
{
    core::Lake lake;
    FaultSpec spec;
    spec.drop = 1.0;
    FaultInjector &inj = lake.channel().installFaults(spec);

    gpu::DevicePtr p = 0;
    EXPECT_EQ(lake.lib().cuMemAlloc(&p, 64), CuResult::Unavailable);
    EXPECT_EQ(lake.lib().cuMemAlloc(&p, 64), CuResult::Unavailable);

    inj.disarm();
    EXPECT_EQ(lake.lib().cuMemAlloc(&p, 64), CuResult::Success);

    inj.arm();
    EXPECT_EQ(lake.lib().cuMemAlloc(&p, 64), CuResult::Unavailable);
    EXPECT_EQ(lake.lib().cuMemAlloc(&p, 64), CuResult::Unavailable);
    // Two failures, success, two failures: never three in a row.
    EXPECT_FALSE(lake.degraded());
}

TEST(DegradedModeTest, FallbackPolicyForcesCpuWhileDegraded)
{
    core::Lake lake;
    std::unique_ptr<policy::ExecPolicy> guarded = lake.degradationGuard(
        std::make_unique<policy::BatchThresholdPolicy>(1));

    policy::PolicyInput in;
    in.batch_size = 64; // far past the threshold: healthy answer is GPU
    EXPECT_EQ(guarded->decide(in), policy::Engine::Gpu);
    EXPECT_EQ(lake.remoteStats().fallbacks, 0u);

    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);
    gpu::DevicePtr p = 0;
    for (std::size_t i = 0; i < lake.config().degrade_threshold; ++i)
        (void)lake.lib().cuMemAlloc(&p, 64);
    ASSERT_TRUE(lake.degraded());

    EXPECT_EQ(guarded->decide(in), policy::Engine::Cpu);
    EXPECT_EQ(guarded->decide(in), policy::Engine::Cpu);
    EXPECT_EQ(lake.remoteStats().fallbacks, 2u);
}

TEST(DegradedModeTest, NvmlProbeReturnsLastReadingOnFailure)
{
    core::Lake lake;
    policy::UtilProbe probe = lake.nvmlProbe();
    double healthy = probe(lake.clock().now());
    EXPECT_GE(healthy, 0.0);
    EXPECT_LE(healthy, 100.0);

    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);
    // The probe must not assert; it repeats the last good reading.
    EXPECT_EQ(probe(lake.clock().now()), healthy);
}

// ---------------------------------------------------------------------
// Streaming DMA pool under channel faults (DESIGN.md §10)
// ---------------------------------------------------------------------

TEST(StreamPoolFaultTest, FaultedSyncReleasesCreditsAndLatchesDegraded)
{
    core::Lake lake;
    remote::StreamingConfig sc;
    sc.enabled = true;
    sc.streams = 2;
    sc.pool_buffers = 2;
    sc.class_bytes = 4096;
    sc.size_classes = 1;
    remote::StreamOrchestrator orch(lake.lib(), lake.clock(), sc);

    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 4096), CuResult::Success);

    // Stage every credit as in-flight DtoH, then break the transport:
    // responses to the synchronizing calls are dropped.
    std::vector<remote::StreamOrchestrator::Buffer *> staged;
    for (std::size_t i = 0; i < orch.totalBuffers(); ++i) {
        remote::StreamOrchestrator::Buffer *b = orch.acquire(4096);
        ASSERT_NE(b, nullptr);
        ASSERT_TRUE(
            orch.stageOut(b, dev, 4096, orch.streamAt(i)).isOk());
        staged.push_back(b);
    }
    ASSERT_EQ(orch.freeBuffers(), 0u);

    FaultSpec spec;
    spec.drop = 1.0;
    spec.kernel_to_user = false; // commands pass; responses vanish
    lake.channel().installFaults(spec);

    // The sync fails, but every buffer bound to the stream comes home:
    // a dropped response must not leak the credit into a pool deadlock.
    EXPECT_NE(orch.syncStream(orch.streamAt(0)), CuResult::Success);
    EXPECT_NE(orch.syncStream(orch.streamAt(1)), CuResult::Success);
    EXPECT_EQ(orch.freeBuffers(), orch.totalBuffers());
    EXPECT_GE(orch.stats().sync_failures, 2u);

    // Acquire still works on the replenished ring (no in-flight work
    // left, so no further transport traffic is needed).
    remote::StreamOrchestrator::Buffer *again = orch.acquire(4096);
    EXPECT_NE(again, nullptr);
    orch.release(again);

    // Enough consecutive failed syncs trip the degraded-mode latch,
    // the signal policies use to fall back to CPU-only inference.
    for (std::size_t i = 0; lake.config().degrade_threshold > i; ++i)
        (void)orch.syncStream(orch.streamAt(0));
    EXPECT_TRUE(lake.degraded());

    lake.channel().faults()->disarm();
}

TEST(StreamPoolFaultTest, DrainUnderFaultsReportsFirstFailure)
{
    core::Lake lake;
    remote::StreamingConfig sc;
    sc.enabled = true;
    sc.streams = 2;
    sc.pool_buffers = 4;
    sc.class_bytes = 4096;
    sc.size_classes = 1;
    remote::StreamOrchestrator orch(lake.lib(), lake.clock(), sc);

    gpu::DevicePtr dev = 0;
    ASSERT_EQ(lake.lib().cuMemAlloc(&dev, 4096), CuResult::Success);
    for (std::size_t i = 0; i < 4; ++i) {
        remote::StreamOrchestrator::Buffer *b = orch.acquire(4096);
        ASSERT_NE(b, nullptr);
        ASSERT_TRUE(
            orch.stageOut(b, dev, 4096, orch.streamAt(i)).isOk());
    }

    FaultSpec spec;
    spec.truncate = 1.0;
    spec.kernel_to_user = false;
    lake.channel().installFaults(spec);

    EXPECT_NE(orch.drain(), CuResult::Success);
    EXPECT_EQ(orch.freeBuffers(), orch.totalBuffers());

    lake.channel().faults()->disarm();
}

// ---------------------------------------------------------------------
// tryClassify: remoting failures propagate as Status, not asserts
// ---------------------------------------------------------------------

TEST(TryClassifyTest, MlpSurfacesTransportErrors)
{
    core::Lake lake;
    Rng rng(5);
    ml::Mlp net(ml::MlpConfig::linnos(), rng);
    ml::LakeMlp gpu_mlp(net, lake.lib(), /*sync_copy=*/true, 16);

    ml::Matrix x(4, net.config().input);
    ASSERT_TRUE(gpu_mlp.tryClassify(x).isOk());

    FaultSpec spec;
    spec.drop = 1.0;
    lake.channel().installFaults(spec);
    Result<std::vector<int>> r = gpu_mlp.tryClassify(x);
    EXPECT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), Code::Unavailable);

    lake.channel().faults()->disarm();
    EXPECT_TRUE(gpu_mlp.tryClassify(x).isOk());
}

// ---------------------------------------------------------------------
// Malformed-command corpus: lakeD must reject, never crash
// ---------------------------------------------------------------------

class MalformedCommandTest : public ::testing::Test
{
  protected:
    /** Drains every response the daemon produced for injected garbage. */
    void drainResponses()
    {
        while (lake_.channel().tryRecv(Dir::UserToKernel))
            ;
    }

    /** Feeds one raw buffer to lakeD and discards whatever comes back. */
    void inject(std::vector<std::uint8_t> buf)
    {
        lake_.channel().send(Dir::KernelToUser, std::move(buf));
        lake_.daemon().processPending();
        drainResponses();
    }

    /** One representative well-formed command per ApiId. */
    std::vector<std::vector<std::uint8_t>> corpus()
    {
        std::vector<std::vector<std::uint8_t>> out;
        auto add = [&out](Encoder e) { out.push_back(e.take()); };
        std::uint32_t seq = 1000;

        {
            Encoder e = makeCommand(ApiId::CuMemAlloc, seq++);
            e.u64(4096);
            add(std::move(e));
        }
        {
            Encoder e = makeCommand(ApiId::CuMemFree, seq++);
            e.u64(0x10000);
            add(std::move(e));
        }
        {
            Encoder e = makeCommand(ApiId::CuMemcpyHtoD, seq++);
            e.u64(0x10000).bytes("payload-bytes", 13);
            add(std::move(e));
        }
        {
            Encoder e = makeCommand(ApiId::CuMemcpyDtoH, seq++);
            e.u64(0x10000).u64(64);
            add(std::move(e));
        }
        for (ApiId id : {ApiId::CuMemcpyHtoDShm, ApiId::CuMemcpyDtoHShm,
                         ApiId::CuMemcpyHtoDShmAsync,
                         ApiId::CuMemcpyDtoHShmAsync}) {
            Encoder e = makeCommand(id, seq++);
            e.u64(0x10000).u64(live_off_).u64(64).u32(0);
            add(std::move(e));
        }
        {
            Encoder e = makeCommand(ApiId::CuLaunchKernel, seq++);
            e.str("vec_add");
            e.u32(1).u32(256);
            e.u32(4);
            e.u64(1).u64(2).u64(3).u64(4);
            e.u32(0);
            add(std::move(e));
        }
        {
            Encoder e = makeCommand(ApiId::CuStreamSynchronize, seq++);
            e.u32(0);
            add(std::move(e));
        }
        add(makeCommand(ApiId::CuCtxSynchronize, seq++));
        add(makeCommand(ApiId::NvmlGetUtilization, seq++));
        {
            Encoder e = makeCommand(ApiId::HighLevelCall, seq++);
            e.str("no.such.api");
            e.u64(7);
            add(std::move(e));
        }
        return out;
    }

    /** Confirms lakeD still serves well-formed traffic normally. */
    void expectDaemonStillHealthy()
    {
        // Garbage one-way commands may have parked a deferred error;
        // one synchronize drains it.
        (void)lake_.lib().cuCtxSynchronize();
        EXPECT_EQ(lake_.lib().cuCtxSynchronize(), CuResult::Success);
        gpu::DevicePtr p = 0;
        EXPECT_EQ(lake_.lib().cuMemAlloc(&p, 256), CuResult::Success);
        EXPECT_EQ(lake_.lib().cuMemFree(p), CuResult::Success);
    }

    void SetUp() override
    {
        live_off_ = lake_.arena().alloc(4096);
        ASSERT_NE(live_off_, shm::kNullOffset);
    }

    core::Lake lake_;
    shm::ShmOffset live_off_ = shm::kNullOffset;
};

TEST_F(MalformedCommandTest, TruncationAtEveryByteBoundary)
{
    for (const std::vector<std::uint8_t> &cmd : corpus()) {
        for (std::size_t len = 0; len < cmd.size(); ++len)
            inject(std::vector<std::uint8_t>(cmd.begin(),
                                             cmd.begin() + len));
    }
    EXPECT_GT(lake_.daemon().malformedRejected(), 0u);
    expectDaemonStillHealthy();
}

TEST_F(MalformedCommandTest, SeededBitFlipsNeverPanicTheDaemon)
{
    Rng rng(0x1a4e);
    for (const std::vector<std::uint8_t> &cmd : corpus()) {
        for (int round = 0; round < 64; ++round) {
            std::vector<std::uint8_t> fuzz = cmd;
            int flips = 1 + static_cast<int>(rng.uniformInt(0, 7));
            for (int f = 0; f < flips; ++f) {
                std::size_t bit = static_cast<std::size_t>(
                    rng.uniformInt(0, fuzz.size() * 8 - 1));
                fuzz[bit / 8] ^= static_cast<std::uint8_t>(
                    1u << (bit % 8));
            }
            inject(std::move(fuzz));
        }
    }
    expectDaemonStillHealthy();
}

TEST_F(MalformedCommandTest, HostileLengthsAreRejectedNotAllocated)
{
    // A DtoH length of ~16 EiB must not become a bounce-buffer
    // allocation attempt.
    Encoder dtoh = makeCommand(ApiId::CuMemcpyDtoH, 1);
    dtoh.u64(0x10000).u64(~0ull);
    inject(dtoh.take());

    // Just past the cap is equally rejected.
    Encoder capped = makeCommand(ApiId::CuMemcpyDtoH, 2);
    capped.u64(0x10000).u64(remote::LakeDaemon::kMaxMarshalledCopy + 1);
    inject(capped.take());

    // A launch claiming 4 billion args must not decode 4 billion times.
    Encoder launch = makeCommand(ApiId::CuLaunchKernel, 3);
    launch.str("vec_add").u32(1).u32(256).u32(0xffffffffu);
    inject(launch.take());

    EXPECT_GE(lake_.daemon().malformedRejected(), 3u);
    expectDaemonStillHealthy();
}

TEST_F(MalformedCommandTest, ShmRangesOutsideLiveAllocationsRejected)
{
    std::uint64_t before = lake_.daemon().malformedRejected();

    // Offset far beyond the region.
    Encoder past = makeCommand(ApiId::CuMemcpyHtoDShm, 1);
    past.u64(0x10000).u64(lake_.arena().capacity() + 4096).u64(64).u32(0);
    inject(past.take());

    // Offset inside the region but in free (never-allocated) space.
    Encoder freespace = makeCommand(ApiId::CuMemcpyDtoHShm, 2);
    freespace.u64(0x10000)
        .u64(live_off_ + (1 << 20))
        .u64(64)
        .u32(0);
    inject(freespace.take());

    // Valid offset, but the length runs off the end of the allocation.
    Encoder overrun = makeCommand(ApiId::CuMemcpyHtoDShm, 3);
    overrun.u64(0x10000).u64(live_off_).u64(1 << 20).u32(0);
    inject(overrun.take());

    // Length that wraps offset + n past UINT64_MAX.
    Encoder wrap = makeCommand(ApiId::CuMemcpyDtoHShm, 4);
    wrap.u64(0x10000).u64(live_off_).u64(~0ull - 16).u32(0);
    inject(wrap.take());

    EXPECT_GE(lake_.daemon().malformedRejected() - before, 4u);
    expectDaemonStillHealthy();
}

// ---------------------------------------------------------------------
// Kernel bodies: untrusted launch scalars never wrap a byte size
// ---------------------------------------------------------------------

// On a standalone device every scalar >= kVaBase passes launchKernel's
// foreign-pointer check, so a count like 2^62 reaches the kernel body,
// where count * width * 4 wraps to a tiny byte size. Each body must
// reject it rather than resolve the wrapped range and read past it.
class KernelScalarTest : public ::testing::Test
{
  protected:
    KernelScalarTest() : dev_(gpu::DeviceSpec::a100()), ctx_(dev_, clock_)
    {
        ml::registerMlKernels();
    }

    gpu::DevicePtr
    upload(const void *src, std::size_t bytes)
    {
        gpu::DevicePtr p = 0;
        EXPECT_EQ(ctx_.memAlloc(&p, bytes), CuResult::Success);
        EXPECT_EQ(ctx_.memcpyHtoD(p, src, bytes), CuResult::Success);
        return p;
    }

    gpu::DevicePtr
    zeros(std::size_t bytes)
    {
        std::vector<std::uint8_t> z(bytes);
        return upload(z.data(), bytes);
    }

    static constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;

    Clock clock_;
    gpu::Device dev_;
    gpu::GpuContext ctx_;
};

TEST_F(KernelScalarTest, MlpForwardRejectsOverflowingBatch)
{
    Rng rng(3);
    ml::Mlp net(ml::MlpConfig::linnos(), rng);
    std::vector<std::uint8_t> blob = net.serialize();
    gpu::DevicePtr model = upload(blob.data(), blob.size());
    gpu::DevicePtr in = zeros(4 * 31 * sizeof(float));
    gpu::DevicePtr out = zeros(4 * 2 * sizeof(float));

    gpu::LaunchConfig ok;
    ok.kernel = "mlp_forward";
    ok.arg(model).arg(in).arg(out).arg(std::uint64_t{4}, nullptr);
    ASSERT_EQ(ctx_.launchKernel(ok), CuResult::Success);

    gpu::LaunchConfig cfg;
    cfg.kernel = "mlp_forward";
    cfg.arg(model).arg(in).arg(out).arg(kHuge, nullptr);
    EXPECT_NE(ctx_.launchKernel(cfg), CuResult::Success);
}

TEST_F(KernelScalarTest, KnnQueryRejectsOverflowingCounts)
{
    const std::uint64_t n_refs = 8, dim = 4, k = 3;
    std::vector<float> refs(n_refs * dim, 1.0f);
    std::vector<std::int32_t> labels(n_refs, 1);
    gpu::DevicePtr d_refs = upload(refs.data(), refs.size() * 4);
    gpu::DevicePtr d_labels = upload(labels.data(), labels.size() * 4);
    gpu::DevicePtr d_q = zeros(2 * dim * sizeof(float));
    gpu::DevicePtr d_out = zeros(2 * sizeof(std::int32_t));

    auto launch = [&](std::uint64_t refs_n, std::uint64_t queries_n,
                      std::uint64_t dim_n, std::uint64_t k_n) {
        gpu::LaunchConfig cfg;
        cfg.kernel = "knn_query";
        cfg.arg(d_refs).arg(d_labels).arg(d_q).arg(d_out);
        cfg.arg(refs_n, nullptr)
            .arg(queries_n, nullptr)
            .arg(dim_n, nullptr)
            .arg(k_n, nullptr);
        return ctx_.launchKernel(cfg);
    };
    ASSERT_EQ(launch(n_refs, 2, dim, k), CuResult::Success);
    EXPECT_NE(launch(n_refs, kHuge, dim, k), CuResult::Success);
    EXPECT_NE(launch(kHuge, 2, dim, k), CuResult::Success);
    // Shapes the host-side Knn cannot represent are rejected, too.
    EXPECT_NE(launch(0, 2, dim, k), CuResult::Success);
    EXPECT_NE(launch(n_refs, 2, 0, k), CuResult::Success);
    EXPECT_NE(launch(n_refs, 2, dim, 0), CuResult::Success);
}

TEST_F(KernelScalarTest, LstmForwardRejectsOverflowingBatch)
{
    ml::LstmConfig lc;
    lc.input = 2;
    lc.hidden = 4;
    lc.layers = 1;
    lc.output = 2;
    lc.seq_len = 4;
    Rng rng(9);
    ml::Lstm net(lc, rng);
    std::vector<std::uint8_t> blob = net.serialize();
    gpu::DevicePtr model = upload(blob.data(), blob.size());
    gpu::DevicePtr in = zeros(2 * lc.seq_len * lc.input * sizeof(float));
    gpu::DevicePtr out = zeros(2 * sizeof(std::int32_t));

    gpu::LaunchConfig ok;
    ok.kernel = "lstm_forward";
    ok.arg(model).arg(in).arg(out).arg(std::uint64_t{2}, nullptr);
    ASSERT_EQ(ctx_.launchKernel(ok), CuResult::Success);

    gpu::LaunchConfig cfg;
    cfg.kernel = "lstm_forward";
    cfg.arg(model).arg(in).arg(out).arg(kHuge, nullptr);
    EXPECT_NE(ctx_.launchKernel(cfg), CuResult::Success);
}

// ---------------------------------------------------------------------
// Fig. 7-style end-to-end run under seeded channel faults
// ---------------------------------------------------------------------

TEST(E2eFaultTest, GracefulDegradationUnderChannelFaults)
{
    Rng rng(31);
    storage::LinnosDataset data = storage::collectLinnosData(
        storage::TraceSpec::azure().rerated(3.0),
        storage::NvmeSpec::samsung980Pro(), 400_ms, 0.80, 7);
    ml::Mlp net = storage::trainLinnosModel(data, 0, 3, 0.05f, rng);

    storage::E2eConfig cfg;
    cfg.mode = storage::E2eMode::LakeNn;
    cfg.model = &net;
    cfg.duration = 300_ms;
    cfg.threshold_us = data.threshold_us;
    // Send most batches to the GPU so the faulty remoting path is
    // exercised constantly.
    cfg.gpu_batch_threshold = 2;
    cfg.inject_faults = true;
    cfg.faults.seed = 0x1a4e;
    cfg.faults.drop = 0.25;
    cfg.faults.bitflip = 0.05;

    std::vector<storage::TraceSpec> traces = {
        storage::TraceSpec::azure().rerated(3.0),
        storage::TraceSpec::bingI().rerated(3.0),
        storage::TraceSpec::cosmos()};

    // The run must complete — no panic, no LAKE_ASSERT — with callers
    // observing Status errors and inference falling back to the CPU.
    storage::E2eResult r = storage::runE2e(traces, cfg);
    EXPECT_GT(r.reads, 1000u);
    EXPECT_GT(r.inference_batches, 10u);
    EXPECT_GT(r.gpu_batches, 0u);
    EXPECT_GT(r.remote_faults, 0u);
    EXPECT_GT(r.cpu_fallbacks, 0u);
    // With a 25% drop rate three consecutive failures arrive early, so
    // the run ends latched into CPU-only mode.
    EXPECT_TRUE(r.degraded);
}

TEST(E2eFaultTest, FaultFreePathIsUnperturbed)
{
    Rng rng(31);
    storage::LinnosDataset data = storage::collectLinnosData(
        storage::TraceSpec::azure().rerated(3.0),
        storage::NvmeSpec::samsung980Pro(), 300_ms, 0.80, 7);
    ml::Mlp net = storage::trainLinnosModel(data, 0, 2, 0.05f, rng);

    storage::E2eConfig cfg;
    cfg.mode = storage::E2eMode::LakeNn;
    cfg.model = &net;
    cfg.duration = 200_ms;
    cfg.threshold_us = data.threshold_us;
    std::vector<storage::TraceSpec> traces(
        3, storage::TraceSpec::bingI().rerated(2.0));

    // Two clean runs are bit-identical (virtual time is deterministic),
    // and the failure counters stay at zero.
    storage::E2eResult a = storage::runE2e(traces, cfg);
    storage::E2eResult b = storage::runE2e(traces, cfg);
    EXPECT_EQ(a.avg_read_lat_us, b.avg_read_lat_us);
    EXPECT_EQ(a.p99_read_lat_us, b.p99_read_lat_us);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.remote_faults, 0u);
    EXPECT_EQ(a.remote_retries, 0u);
    EXPECT_EQ(a.cpu_fallbacks, 0u);
    EXPECT_FALSE(a.degraded);
}

} // namespace
} // namespace lake
