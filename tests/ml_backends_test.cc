// Tests for the CPU and LAKE-remoted GPU inference backends: result
// parity across engines, timing model sanity, crossover existence.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/lake.h"
#include "ml/backends.h"
#include "ml/gpu_kernels.h"

namespace lake::ml {
namespace {

class BackendsTest : public ::testing::Test
{
  protected:
    BackendsTest() : rng_(21) { registerMlKernels(); }

    Matrix
    randomBatch(std::size_t n, std::size_t width)
    {
        Matrix x(n, width);
        for (std::size_t i = 0; i < x.size(); ++i)
            x.data()[i] = static_cast<float>(rng_.uniform(0.0, 1.0));
        return x;
    }

    core::Lake lake_;
    Rng rng_;
};

TEST_F(BackendsTest, CpuMlpMatchesModel)
{
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    Matrix x = randomBatch(16, 31);

    Nanos t0 = lake_.clock().now();
    std::vector<int> got = cpu.classify(x);
    EXPECT_GT(lake_.clock().now(), t0); // charged time
    EXPECT_EQ(got, net.classify(x));
}

TEST_F(BackendsTest, CpuInferenceCostsAboutFifteenMicros)
{
    // §7.1: "each inference on CPU takes around 15 us".
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    Matrix x = randomBatch(1, 31);
    Nanos t0 = lake_.clock().now();
    cpu.classify(x);
    double us = toUs(lake_.clock().now() - t0);
    EXPECT_GT(us, 10.0);
    EXPECT_LT(us, 20.0);
}

TEST_F(BackendsTest, LakeMlpMatchesCpuResults)
{
    Mlp net(MlpConfig::linnos(), rng_);
    LakeMlp gpu(net, lake_.lib(), /*sync_copy=*/false, 64);
    Matrix x = randomBatch(32, 31);
    EXPECT_EQ(gpu.classify(x), net.classify(x));
}

/** Labels, lib-clock advance and remoted calls of one GPU classify. */
struct GpuRun
{
    std::vector<int> labels;
    Nanos elapsed = 0;
    std::uint64_t calls = 0;
};

enum class CopyMode { Sync, Staged, Streamed };

/** Classifies @p xs on a freshly booted Lake in copy mode @p mode. */
GpuRun
runOnFreshLake(const Mlp &net, CopyMode mode,
               const std::vector<MatrixView> &xs)
{
    core::LakeConfig cfg;
    cfg.streaming.enabled = mode == CopyMode::Streamed;
    cfg.streaming.streams = 4;
    core::Lake lake(cfg);
    LakeMlp gpu(net, lake.lib(), mode == CopyMode::Sync, 64);
    gpu.enableStreaming(lake.streaming());
    Nanos t0 = lake.clock().now();
    std::uint64_t c0 = lake.lib().calls();
    GpuRun run;
    run.labels = gpu.classify(xs);
    run.elapsed = lake.clock().now() - t0;
    run.calls = lake.lib().calls() - c0;
    return run;
}

TEST_F(BackendsTest, LakeMlpViewsMatchTheDenseBatchInEveryCopyMode)
{
    Mlp net(MlpConfig::linnos(), rng_);
    // The SoA float plane's layout: 32-float rows for 31 features.
    Matrix plane = randomBatch(37, 32);
    Matrix dense(plane.rows(), 31);
    for (std::size_t r = 0; r < plane.rows(); ++r)
        std::copy(plane.row(r), plane.row(r) + 31, dense.row(r));
    auto window = [&](std::size_t r0, std::size_t r1) {
        return MatrixView(plane.row(r0), r1 - r0, 31, plane.cols());
    };

    for (CopyMode mode :
         {CopyMode::Sync, CopyMode::Staged, CopyMode::Streamed}) {
        GpuRun want = runOnFreshLake(net, mode, {dense.view()});
        EXPECT_EQ(want.labels, net.classify(dense));
        for (std::size_t split : {1u, 10u, 36u}) {
            GpuRun got = runOnFreshLake(
                net, mode, {window(0, split), window(split, 37)});
            EXPECT_EQ(got.labels, want.labels) << "split " << split;
            EXPECT_EQ(got.elapsed, want.elapsed) << "split " << split;
            EXPECT_EQ(got.calls, want.calls) << "split " << split;
        }
        // Many views, one of them empty.
        GpuRun rows = runOnFreshLake(
            net, mode,
            {window(0, 5), window(5, 5), window(5, 6), window(6, 37)});
        EXPECT_EQ(rows.labels, want.labels);
        EXPECT_EQ(rows.elapsed, want.elapsed);
        EXPECT_EQ(rows.calls, want.calls);
    }
}

TEST_F(BackendsTest, LakeMlpSyncCopyCostsMore)
{
    Mlp net(MlpConfig::linnos(), rng_);
    LakeMlp async_mlp(net, lake_.lib(), false, 1024);
    LakeMlp sync_mlp(net, lake_.lib(), true, 1024);
    Matrix x = randomBatch(1024, 31);

    Nanos t0 = lake_.clock().now();
    async_mlp.classify(x);
    Nanos async_cost = lake_.clock().now() - t0;

    t0 = lake_.clock().now();
    sync_mlp.classify(x);
    Nanos sync_cost = lake_.clock().now() - t0;

    EXPECT_GT(sync_cost, async_cost);
}

TEST_F(BackendsTest, CrossoverExists)
{
    // Table 3: the GPU loses at batch 1 and wins at large batches.
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    LakeMlp gpu(net, lake_.lib(), false, 1024);

    auto time_of = [&](auto &engine, std::size_t batch) {
        Matrix x = randomBatch(batch, 31);
        Nanos t0 = lake_.clock().now();
        engine.classify(x);
        return lake_.clock().now() - t0;
    };

    EXPECT_LT(time_of(cpu, 1), time_of(gpu, 1));
    EXPECT_GT(time_of(cpu, 1024), time_of(gpu, 1024));
}

TEST_F(BackendsTest, LinnosCrossoverNearEight)
{
    // Table 3 row 1: crossover at 8 for the LinnOS model.
    Mlp net(MlpConfig::linnos(), rng_);
    CpuMlp cpu(net, lake_.kernelCpu());
    LakeMlp gpu(net, lake_.lib(), false, 64);

    auto time_of = [&](auto &engine, std::size_t batch) {
        Matrix x = randomBatch(batch, 31);
        Nanos t0 = lake_.clock().now();
        engine.classify(x);
        return lake_.clock().now() - t0;
    };

    std::size_t crossover = 0;
    for (std::size_t b = 1; b <= 64; b *= 2) {
        if (time_of(gpu, b) < time_of(cpu, b)) {
            crossover = b;
            break;
        }
    }
    EXPECT_GE(crossover, 2u);
    EXPECT_LE(crossover, 16u);
}

TEST_F(BackendsTest, CpuKnnMatchesModel)
{
    Knn knn(8, 3);
    std::vector<float> pt(8);
    for (int i = 0; i < 64; ++i) {
        for (auto &v : pt)
            v = static_cast<float>(rng_.uniform(-1.0, 1.0));
        knn.add(pt.data(), i % 2);
    }
    CpuKnn cpu(knn, lake_.kernelCpu());
    std::vector<float> q(4 * 8);
    for (auto &v : q)
        v = static_cast<float>(rng_.uniform(-1.0, 1.0));
    EXPECT_EQ(cpu.classify(q.data(), 4), knn.classifyBatch(q.data(), 4));
}

TEST_F(BackendsTest, LakeKnnMatchesCpu)
{
    Knn knn(16, 5);
    std::vector<float> pt(16);
    for (int i = 0; i < 200; ++i) {
        for (auto &v : pt)
            v = static_cast<float>(rng_.uniform(-1.0, 1.0));
        knn.add(pt.data(), i % 3);
    }
    LakeKnn gpu(knn, lake_.lib(), false, 64);
    std::vector<float> q(32 * 16);
    for (auto &v : q)
        v = static_cast<float>(rng_.uniform(-1.0, 1.0));
    EXPECT_EQ(gpu.classify(q.data(), 32), knn.classifyBatch(q.data(), 32));
}

TEST_F(BackendsTest, KleioServiceMatchesHostLstm)
{
    LstmConfig cfg;
    cfg.input = 1;
    cfg.hidden = 16;
    cfg.layers = 2;
    cfg.output = 2;
    cfg.seq_len = 8;
    Lstm net(cfg, rng_);
    KleioService kleio(lake_.daemon(), net);

    const std::size_t batch = 12;
    std::vector<float> seqs(batch * cfg.seq_len);
    for (auto &v : seqs)
        v = static_cast<float>(rng_.uniform(0.0, 1.0));

    std::vector<int> got = kleio.classify(lake_.lib(), seqs, batch);
    EXPECT_EQ(got, net.classifyBatch(seqs, batch));
}

TEST_F(BackendsTest, KleioChargesTensorFlowOverhead)
{
    LstmConfig cfg;
    cfg.input = 1;
    cfg.hidden = 8;
    cfg.layers = 2;
    cfg.output = 2;
    cfg.seq_len = 4;
    Lstm net(cfg, rng_);
    KleioService kleio(lake_.daemon(), net);

    std::vector<float> seqs(4, 0.5f);
    Nanos t0 = lake_.clock().now();
    kleio.classify(lake_.lib(), seqs, 1);
    EXPECT_GE(lake_.clock().now() - t0, KleioService::kTfCallOverhead);
}

TEST_F(BackendsTest, GpuBusyTimeRecorded)
{
    Mlp net(MlpConfig::linnos(), rng_);
    LakeMlp gpu(net, lake_.lib(), false, 64);
    Nanos busy_before = lake_.device().computeBusy().totalBusy();
    gpu.classify(randomBatch(32, 31));
    EXPECT_GT(lake_.device().computeBusy().totalBusy(), busy_before);
}

} // namespace
} // namespace lake::ml
