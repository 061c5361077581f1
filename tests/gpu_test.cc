// Tests for the simulated GPU: memory, kernels, timing, streams, NVML.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "gpu/context.h"
#include "gpu/device.h"
#include "gpu/kernels.h"
#include "gpu/nvml.h"

namespace lake::gpu {
namespace {

class GpuTest : public ::testing::Test
{
  protected:
    GpuTest() : dev_(DeviceSpec::a100()), ctx_(dev_, clock_) {}

    Clock clock_;
    Device dev_;
    GpuContext ctx_;
};

TEST_F(GpuTest, MemAllocResolveFree)
{
    DevicePtr p = 0;
    ASSERT_EQ(ctx_.memAlloc(&p, 4096), CuResult::Success);
    EXPECT_NE(p, 0u);
    EXPECT_EQ(dev_.memUsed(), 4096u);

    void *host = dev_.resolve(p, 4096);
    ASSERT_NE(host, nullptr);
    // Interior pointers resolve too.
    EXPECT_EQ(dev_.resolve(p + 100, 3996),
              static_cast<std::uint8_t *>(host) + 100);
    // Out-of-bounds ranges do not.
    EXPECT_EQ(dev_.resolve(p + 100, 4000), nullptr);
    EXPECT_EQ(dev_.resolve(p - 1, 1), nullptr);
    // Lengths that would wrap off + bytes past 2^64.
    EXPECT_EQ(dev_.resolve(p + 100, SIZE_MAX), nullptr);
    EXPECT_EQ(dev_.resolve(p + 4096, SIZE_MAX - 4095), nullptr);

    EXPECT_EQ(ctx_.memFree(p), CuResult::Success);
    EXPECT_EQ(dev_.memUsed(), 0u);
    EXPECT_EQ(ctx_.memFree(p), CuResult::InvalidValue); // double free
}

TEST_F(GpuTest, AllocRejectsBadArgs)
{
    DevicePtr p = 0;
    EXPECT_EQ(ctx_.memAlloc(nullptr, 16), CuResult::InvalidValue);
    EXPECT_EQ(ctx_.memAlloc(&p, 0), CuResult::InvalidValue);
    EXPECT_EQ(ctx_.memAlloc(&p, dev_.spec().mem_capacity + 1),
              CuResult::OutOfMemory);
}

TEST_F(GpuTest, MemcpyRoundTrip)
{
    DevicePtr p = 0;
    ASSERT_EQ(ctx_.memAlloc(&p, 256), CuResult::Success);
    std::vector<std::uint8_t> src(256), dst(256);
    for (int i = 0; i < 256; ++i)
        src[i] = static_cast<std::uint8_t>(i);
    ASSERT_EQ(ctx_.memcpyHtoD(p, src.data(), 256), CuResult::Success);
    ASSERT_EQ(ctx_.memcpyDtoH(dst.data(), p, 256), CuResult::Success);
    EXPECT_EQ(src, dst);
}

TEST_F(GpuTest, VecAddComputesCorrectly)
{
    const std::uint64_t n = 1000;
    DevicePtr a = 0, b = 0, c = 0;
    ASSERT_EQ(ctx_.memAlloc(&a, n * 4), CuResult::Success);
    ASSERT_EQ(ctx_.memAlloc(&b, n * 4), CuResult::Success);
    ASSERT_EQ(ctx_.memAlloc(&c, n * 4), CuResult::Success);

    std::vector<float> ha(n), hb(n), hc(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ha[i] = static_cast<float>(i);
        hb[i] = static_cast<float>(2 * i);
    }
    ctx_.memcpyHtoD(a, ha.data(), n * 4);
    ctx_.memcpyHtoD(b, hb.data(), n * 4);

    LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.grid_x = 4;
    cfg.block_x = 256;
    cfg.arg(a).arg(b).arg(c).arg(n, nullptr);
    ASSERT_EQ(ctx_.launchKernel(cfg), CuResult::Success);
    ASSERT_EQ(ctx_.ctxSynchronize(), CuResult::Success);

    ctx_.memcpyDtoH(hc.data(), c, n * 4);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(hc[i], 3.0f * static_cast<float>(i));
}

TEST_F(GpuTest, SaxpyComputesCorrectly)
{
    const std::uint64_t n = 64;
    DevicePtr x = 0, y = 0;
    ASSERT_EQ(ctx_.memAlloc(&x, n * 4), CuResult::Success);
    ASSERT_EQ(ctx_.memAlloc(&y, n * 4), CuResult::Success);
    std::vector<float> hx(n, 2.0f), hy(n, 10.0f);
    ctx_.memcpyHtoD(x, hx.data(), n * 4);
    ctx_.memcpyHtoD(y, hy.data(), n * 4);

    LaunchConfig cfg;
    cfg.kernel = "saxpy";
    cfg.argF(3.0f).arg(x).arg(y).arg(n, nullptr);
    ASSERT_EQ(ctx_.launchKernel(cfg), CuResult::Success);
    ctx_.ctxSynchronize();

    ctx_.memcpyDtoH(hy.data(), y, n * 4);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(hy[i], 16.0f);
}

TEST_F(GpuTest, UnknownKernelFailsLaunch)
{
    LaunchConfig cfg;
    cfg.kernel = "does_not_exist";
    EXPECT_EQ(ctx_.launchKernel(cfg), CuResult::NotFound);
}

TEST_F(GpuTest, KernelWithBadPointerFails)
{
    LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.arg(DevicePtr{1}).arg(DevicePtr{2}).arg(DevicePtr{3}).arg(
        std::uint64_t{10}, nullptr);
    EXPECT_EQ(ctx_.launchKernel(cfg), CuResult::LaunchFailed);
}

TEST_F(GpuTest, TransferTimeModel)
{
    const DeviceSpec &spec = dev_.spec();
    EXPECT_EQ(dev_.transferTime(0), spec.transfer_overhead);
    // 24 GB/s == 24 bytes/ns: 24 MB should take ~1 ms + overhead.
    Nanos t = dev_.transferTime(24 << 20);
    EXPECT_NEAR(static_cast<double>(t - spec.transfer_overhead), 1e6,
                1e6 * 0.05);
}

TEST_F(GpuTest, ComputeTimeRoofline)
{
    // Compute-bound: many flops over few bytes.
    Nanos ct = dev_.computeTime(1e9, 1024);
    EXPECT_NEAR(static_cast<double>(ct), 1e9 / dev_.spec().effective_gflops,
                1e3);
    // Memory-bound: few flops over many bytes.
    Nanos mt = dev_.computeTime(10.0, 1ull << 30);
    EXPECT_NEAR(static_cast<double>(mt),
                static_cast<double>(1ull << 30) / dev_.spec().mem_gbps,
                1e3);
}

TEST_F(GpuTest, SyncAdvancesClockAsyncDoesNot)
{
    DevicePtr p = 0;
    ctx_.memAlloc(&p, 1 << 20);
    std::vector<std::uint8_t> buf(1 << 20);

    Nanos t0 = clock_.now();
    ctx_.memcpyHtoD(p, buf.data(), buf.size());
    Nanos sync_cost = clock_.now() - t0;
    EXPECT_GT(sync_cost, dev_.transferTime(buf.size()) / 2);

    t0 = clock_.now();
    ctx_.memcpyHtoDAsync(p, buf.data(), buf.size(), 1);
    Nanos async_cost = clock_.now() - t0;
    EXPECT_LT(async_cost, sync_cost / 10); // only the driver call
    // Synchronize pays the deferred time.
    ctx_.streamSynchronize(1);
    EXPECT_GE(clock_.now(), t0 + dev_.transferTime(buf.size()));
}

TEST_F(GpuTest, StreamOrderingSerializesWork)
{
    DevicePtr p = 0;
    ctx_.memAlloc(&p, 4096);
    std::vector<float> buf(1024, 1.0f);

    // Two async copies on one stream: completion times accumulate.
    ctx_.memcpyHtoDAsync(p, buf.data(), 4096, 3);
    Nanos first_ready = ctx_.streamReadyAt(3);
    ctx_.memcpyHtoDAsync(p, buf.data(), 4096, 3);
    EXPECT_GE(ctx_.streamReadyAt(3),
              first_ready + dev_.transferTime(4096) - 1);
}

TEST_F(GpuTest, DefaultStreamOrdersSyncCopyAfterLaunch)
{
    const std::uint64_t n = 1 << 18;
    DevicePtr a = 0, b = 0, c = 0;
    ctx_.memAlloc(&a, n * 4);
    ctx_.memAlloc(&b, n * 4);
    ctx_.memAlloc(&c, n * 4);

    LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.arg(a).arg(b).arg(c).arg(n, nullptr);
    ASSERT_EQ(ctx_.launchKernel(cfg, 0), CuResult::Success);
    Nanos kernel_done = ctx_.streamReadyAt(0);

    std::vector<float> out(n);
    ctx_.memcpyDtoH(out.data(), c, n * 4);
    EXPECT_GE(clock_.now(), kernel_done);
}

TEST_F(GpuTest, UtilizationTracksKernels)
{
    Nvml nvml(dev_);
    EXPECT_DOUBLE_EQ(nvml.utilization(clock_.now()).gpu, 0.0);

    // Saturate the compute engine for a full sample window.
    dev_.reserveCompute(clock_.now(), Nvml::kSampleWindow);
    clock_.advance(Nvml::kSampleWindow);
    EXPECT_NEAR(nvml.utilization(clock_.now()).gpu, 100.0, 1.0);

    // After an idle window, utilization decays to zero.
    clock_.advance(2 * Nvml::kSampleWindow);
    EXPECT_NEAR(nvml.utilization(clock_.now()).gpu, 0.0, 1.0);
}

TEST_F(GpuTest, LaunchCountsAndOverhead)
{
    const std::uint64_t n = 16;
    DevicePtr a = 0, b = 0, c = 0;
    ctx_.memAlloc(&a, n * 4);
    ctx_.memAlloc(&b, n * 4);
    ctx_.memAlloc(&c, n * 4);

    LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.arg(a).arg(b).arg(c).arg(n, nullptr);

    std::uint64_t before = dev_.launches();
    Nanos ready_before = ctx_.streamReadyAt(0);
    ASSERT_EQ(ctx_.launchKernel(cfg, 0), CuResult::Success);
    EXPECT_EQ(dev_.launches(), before + 1);
    EXPECT_GE(ctx_.streamReadyAt(0),
              ready_before + dev_.spec().launch_overhead);
}

TEST(GpuSpecTest, ModestDeviceIsSlower)
{
    DeviceSpec big = DeviceSpec::a100();
    DeviceSpec small = DeviceSpec::modest();
    EXPECT_LT(small.effective_gflops, big.effective_gflops);
    EXPECT_LT(small.pcie_gbps, big.pcie_gbps);
    EXPECT_GT(small.launch_overhead, big.launch_overhead);
}

TEST(KernelRegistryTest, NamesAndReplacement)
{
    registerBuiltinKernels();
    KernelRegistry &reg = KernelRegistry::global();
    EXPECT_TRUE(reg.has("vec_add"));
    EXPECT_TRUE(reg.has("saxpy"));
    EXPECT_TRUE(reg.has("page_hash"));
    EXPECT_FALSE(reg.has("nope"));
    auto names = reg.names();
    EXPECT_GE(names.size(), 3u);
}

} // namespace
} // namespace lake::gpu
