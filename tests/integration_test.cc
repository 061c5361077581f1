// Cross-module integration tests: the full LAKE stack end to end,
// including a miniature version of the Fig. 13 adaptive contention
// experiment.

#include <gtest/gtest.h>

#include <memory>

#include "base/ring_buffer.h"
#include "core/lake.h"
#include "ml/backends.h"
#include "ml/gpu_kernels.h"
#include "policy/bpf.h"
#include "sim/simulator.h"

namespace lake {
namespace {

TEST(LakeBootTest, ComponentsAreWired)
{
    core::Lake lake;
    EXPECT_EQ(lake.clock().now(), 0u);
    EXPECT_EQ(lake.arena().capacity(), lake.config().shm_bytes);
    EXPECT_EQ(lake.device().memUsed(), 0u);
    EXPECT_EQ(lake.channel().kind(), channel::Kind::Netlink);
}

TEST(LakeBootTest, AlternateChannelConfigurations)
{
    core::LakeConfig cfg;
    cfg.channel = channel::Kind::Mmap;
    cfg.shm_bytes = 1 << 20;
    cfg.fleet.spec = gpu::DeviceSpec::modest();
    core::Lake lake(cfg);
    EXPECT_EQ(lake.channel().kind(), channel::Kind::Mmap);
    EXPECT_EQ(lake.device().spec().effective_gflops,
              gpu::DeviceSpec::modest().effective_gflops);
}

TEST(QuickstartFlowTest, SaxpyThroughTheFullStack)
{
    // The README quickstart, as a test: a "kernel module" drives
    // saxpy on the GPU through lakeShm + lakeLib + lakeD.
    core::Lake lake;
    auto &lib = lake.lib();
    auto &arena = lake.arena();

    const std::uint64_t n = 4096;
    shm::ShmOffset h = arena.alloc(n * sizeof(float));
    ASSERT_NE(h, shm::kNullOffset);
    auto *buf = static_cast<float *>(arena.at(h));

    gpu::DevicePtr x = 0, y = 0;
    ASSERT_EQ(lib.cuMemAlloc(&x, n * 4), gpu::CuResult::Success);
    ASSERT_EQ(lib.cuMemAlloc(&y, n * 4), gpu::CuResult::Success);

    for (std::uint64_t i = 0; i < n; ++i)
        buf[i] = 1.0f;
    ASSERT_EQ(lib.cuMemcpyHtoDShm(x, h, n * 4), gpu::CuResult::Success);
    for (std::uint64_t i = 0; i < n; ++i)
        buf[i] = 2.0f;
    ASSERT_EQ(lib.cuMemcpyHtoDShm(y, h, n * 4), gpu::CuResult::Success);

    gpu::LaunchConfig cfg;
    cfg.kernel = "saxpy";
    cfg.argF(2.5f).arg(x).arg(y).arg(n, nullptr);
    ASSERT_EQ(lib.cuLaunchKernel(cfg), gpu::CuResult::Success);
    ASSERT_EQ(lib.cuCtxSynchronize(), gpu::CuResult::Success);

    ASSERT_EQ(lib.cuMemcpyDtoHShm(h, y, n * 4), gpu::CuResult::Success);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(buf[i], 4.5f);

    lib.cuMemFree(x);
    lib.cuMemFree(y);
    arena.free(h);
    EXPECT_GT(lake.clock().now(), 0u);
}

TEST(RegistryInferenceFlowTest, Listing4EndToEnd)
{
    // Listing 4/5 of the paper, against real classifiers: capture,
    // commit, batch-score through the policy, truncate.
    core::Lake lake;
    Rng rng(139);
    ml::registerMlKernels();

    ml::Mlp model(ml::MlpConfig::linnos(), rng);
    auto cpu_backend =
        std::make_shared<ml::CpuMlp>(model, lake.kernelCpu());
    auto gpu_backend = std::make_shared<ml::LakeMlp>(
        model, lake.lib(), false, 64);

    registry::Schema schema;
    schema.add("pend_ios");
    schema.add("lat", 8, 4);
    ASSERT_TRUE(lake.registries()
                    .createRegistry("sda1", "bio", schema, 64)
                    .isOk());
    registry::Registry *reg = lake.registries().find("sda1", "bio");
    ASSERT_NE(reg, nullptr);

    auto featurize = [](const registry::FvBatchView &v) {
        ml::Matrix x(v.size(), 31);
        for (std::size_t r = 0; r < v.size(); ++r) {
            x.at(r, 0) = static_cast<float>(v.get(
                             r, registry::featureKey("pend_ios"))) *
                         0.1f;
            // Column 1 is "lat": entry h is the h-th latest latency.
            for (std::uint32_t h = 0; h < 4; ++h)
                x.at(r, 1 + h) = static_cast<float>(v.value(r, 1, h)) * 1e-3f;
        }
        return x;
    };
    reg->registerClassifier(
        registry::Arch::Cpu, [&](const registry::FvBatchView &v) {
            auto cls = cpu_backend->classify(featurize(v));
            return std::vector<float>(cls.begin(), cls.end());
        });
    reg->registerClassifier(
        registry::Arch::Gpu, [&](const registry::FvBatchView &v) {
            auto cls = gpu_backend->classify(featurize(v));
            return std::vector<float>(cls.begin(), cls.end());
        });
    reg->registerPolicy(
        std::make_unique<policy::BatchThresholdPolicy>(8));

    // Small batch -> CPU.
    reg->beginFvCapture(0);
    for (int i = 0; i < 4; ++i) {
        reg->captureFeatureIncr("pend_ios", 1);
        reg->captureFeature("lat", 100 + i);
        reg->commitFvCapture(i + 1);
    }
    auto fvs = reg->getFeatures();
    auto scores = reg->scoreFeatures(fvs, lake.clock().now());
    EXPECT_EQ(scores.size(), 4u);
    EXPECT_EQ(reg->lastEngine(), policy::Engine::Cpu);

    // Large batch -> GPU, identical labels to the CPU backend.
    for (int i = 0; i < 16; ++i) {
        reg->captureFeatureIncr("pend_ios", 1);
        reg->captureFeature("lat", 500 + i);
        reg->commitFvCapture(100 + i);
    }
    reg->truncateFeatures(Nanos{50});
    fvs = reg->getFeatures();
    ASSERT_GE(fvs.size(), 16u);
    scores = reg->scoreFeatures(fvs, lake.clock().now());
    EXPECT_EQ(reg->lastEngine(), policy::Engine::Gpu);

    auto cpu_scores_check =
        cpu_backend->classify(featurize(reg->batchView()));
    for (std::size_t i = 0; i < scores.size(); ++i)
        EXPECT_FLOAT_EQ(scores[i],
                        static_cast<float>(cpu_scores_check[i]));
}

TEST(ModelLifecycleFlowTest, Table1ModelPathServesInference)
{
    // Table 1's model lifecycle against a real network: train (user
    // space), update_model commits the blob, load_model brings it into
    // memory at "boot", and inference runs from the in-memory image.
    core::Lake lake;
    Rng rng(211);

    ml::Mlp trained(ml::MlpConfig::linnos(), rng);
    const std::string path = "/lake/models/lat.nn";
    auto &mgr = lake.registries();

    ASSERT_TRUE(registry::create_model(mgr, "sda1", "bio", path).isOk());
    ASSERT_TRUE(registry::update_model(mgr, "sda1", "bio", path,
                                       trained.serialize())
                    .isOk());
    ASSERT_TRUE(registry::load_model(mgr, "sda1", "bio", path).isOk());

    const std::vector<std::uint8_t> *blob = mgr.models().inMemory(path);
    ASSERT_NE(blob, nullptr);
    auto loaded = ml::Mlp::deserialize(*blob);
    ASSERT_TRUE(loaded.isOk());

    ml::Matrix x(8, 31);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(i % 10) * 0.09f;
    EXPECT_EQ(loaded.value().classify(x), trained.classify(x));

    // Loading is a durable (costed) operation; inference-time access
    // to the in-memory image charges nothing (§5.1).
    Nanos before = lake.clock().now();
    mgr.models().inMemory(path);
    EXPECT_EQ(lake.clock().now(), before);
}

TEST(PanicContractDeathTest, InvariantViolationsAbort)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Protocol and container misuse is a bug, not a runtime condition:
    // LAKE panics instead of corrupting simulation state.
    EXPECT_DEATH(
        {
            RingBuffer<int> r(2);
            r.pop(); // empty
        },
        "pop from empty ring");
    EXPECT_DEATH(
        {
            Clock clock;
            channel::Channel chan(channel::Kind::Netlink, clock);
            chan.recv(channel::Channel::Dir::KernelToUser);
        },
        "recv on empty");
    EXPECT_DEATH(
        {
            registry::Registry reg("r", "s",
                                   registry::Schema().add("x"), 4);
            reg.captureFeature("undeclared", 1);
        },
        "undeclared feature");
}

TEST(ContentionFlowTest, AdaptivePolicySwitchesAndReclaims)
{
    // A miniature Fig. 13: a kernel inference loop shares the GPU with
    // a user hashing job. The Fig. 3 policy must (a) use the GPU when
    // idle, (b) fall back to CPU under contention, (c) reclaim after.
    core::Lake lake;
    gpu::Device &dev = lake.device();

    policy::ContentionConfig pcfg;
    pcfg.probe_interval = 5_ms;
    pcfg.avg_window = 2;
    pcfg.exec_threshold = 40.0;
    pcfg.batch_threshold = 4;
    policy::FleetPlacementPolicy policy({lake.nvmlProbe()},
                                        {.contention = pcfg});

    Clock &clock = lake.clock();
    auto decide = [&](std::size_t batch) {
        policy::PolicyInput in;
        in.batch_size = batch;
        in.now = clock.now();
        return policy.decide(in);
    };

    // Phase 1: idle GPU.
    EXPECT_EQ(decide(16), policy::Engine::Gpu);

    // Phase 2: user job saturates the GPU for a while.
    for (int i = 0; i < 20; ++i) {
        dev.reserveCompute(clock.now(), 5_ms);
        clock.advance(5_ms);
        decide(16);
    }
    EXPECT_EQ(decide(16), policy::Engine::Cpu);

    // Phase 3: user job exits; utilization decays; GPU reclaimed.
    policy::Engine e = policy::Engine::Cpu;
    for (int i = 0; i < 20 && e == policy::Engine::Cpu; ++i) {
        clock.advance(5_ms);
        e = decide(16);
    }
    EXPECT_EQ(e, policy::Engine::Gpu);
}

TEST(ContentionFlowTest, BpfPolicyDrivesTheSameSwitch)
{
    core::Lake lake;
    policy::BpfVm vm;
    policy::BpfPolicy::Config cfg;
    cfg.avg_window = 1;
    policy::BpfPolicy policy(vm, policy::buildFig3Program(40.0, 4),
                             lake.nvmlProbe(), cfg);

    Clock &clock = lake.clock();
    policy::PolicyInput in;
    in.batch_size = 16;
    in.now = clock.now();
    EXPECT_EQ(policy.decide(in), policy::Engine::Gpu);

    lake.device().reserveCompute(clock.now(), 50_ms);
    clock.advance(10_ms);
    in.now = clock.now();
    EXPECT_EQ(policy.decide(in), policy::Engine::Cpu);
}

TEST(UserKernelSharingTest, KernelWorkQueuesBehindUserWork)
{
    // The mechanism behind Fig. 1: without policy control, kernel
    // launches queue behind user-space kernels on the device engine.
    core::Lake lake;
    gpu::Device &dev = lake.device();

    // "User space" grabs the compute engine for 1 ms.
    gpu::EngineSpan user = dev.reserveCompute(0, 1_ms);
    // The kernel's inference launch can only start after it.
    gpu::EngineSpan kernel = dev.reserveCompute(10_us, 50_us);
    EXPECT_EQ(kernel.start, user.end);
    EXPECT_EQ(kernel.end, user.end + 50_us);
}

} // namespace
} // namespace lake
