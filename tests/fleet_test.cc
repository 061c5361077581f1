// Tests for the sharded lakeD fleet (DESIGN.md §13) and the three
// single-device-assumption bugfixes this PR carries:
//
//  1. disjoint per-device VA windows (fleet devices used to share
//     Device::kVaBase, so pointers from different devices aliased) and
//     cross-device pointer rejection in GpuContext::launchKernel;
//  2. per-shard remoting health (the degraded latch used to be
//     Lake-global, so one sick device forced the whole fleet to CPU);
//  3. per-device contention-probe state (a single MovingAverage
//     blended every device's utilization into one stale signal).
//
// Plus the fleet contract itself: CuSetDevice muxing (including a
// lost CuSetDevice response), the 1-device fleet's bit-identity with
// the classic stack, FleetMlp's dispatch (placement and the mid-batch
// CPU fallback), core::Lake as a fleet of one (and of many), and a
// TSan-exercised K-shard concurrent dispatch stress under the
// multi-tenant generator.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "base/time.h"
#include "channel/channel.h"
#include "channel/fault.h"
#include "core/lake.h"
#include "gpu/context.h"
#include "gpu/device.h"
#include "gpu/fleet.h"
#include "gpu/kernels.h"
#include "gpu/spec.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "policy/policy.h"
#include "registry/manager.h"
#include "remote/daemon.h"
#include "remote/fleet.h"
#include "remote/lakelib.h"
#include "serve/serve.h"
#include "serve/traffic.h"
#include "shm/arena.h"

using namespace lake;
using channel::FaultSpec;
using gpu::CuResult;
using gpu::DevicePtr;

namespace {

gpu::FleetConfig
fleetConfig(std::size_t devices, std::size_t shards = 1)
{
    gpu::FleetConfig cfg;
    cfg.enabled = true;
    cfg.devices = devices;
    cfg.shards = shards;
    return cfg;
}

} // namespace

// ---- bugfix 1: disjoint VA windows ---------------------------------

TEST(DeviceFleetTest, DevicesAllocateFromDisjointVaWindows)
{
    gpu::DeviceFleet fleet(fleetConfig(2));
    DevicePtr p0 = 0, p1 = 0;
    ASSERT_EQ(fleet.at(0).memAlloc(&p0, 4096), CuResult::Success);
    ASSERT_EQ(fleet.at(1).memAlloc(&p1, 4096), CuResult::Success);

    // Pre-fix both devices minted from the shared kVaBase cursor start,
    // so the first allocation on each was the *same* pointer value.
    EXPECT_NE(p0, p1);
    EXPECT_GE(p0, gpu::Device::kVaBase);
    EXPECT_LT(p0, gpu::Device::kVaBase + gpu::Device::kVaWindow);
    EXPECT_GE(p1, gpu::Device::kVaBase + gpu::Device::kVaWindow);

    EXPECT_TRUE(fleet.at(0).ownsVa(p0));
    EXPECT_FALSE(fleet.at(0).ownsVa(p1));
    EXPECT_TRUE(fleet.at(1).ownsVa(p1));
    EXPECT_FALSE(fleet.at(1).ownsVa(p0));

    EXPECT_EQ(fleet.ownerOf(p0), 0u);
    EXPECT_EQ(fleet.ownerOf(p1), 1u);
    // Scalars below kVaBase belong to nobody.
    EXPECT_EQ(fleet.ownerOf(1234), fleet.size());

    // A foreign pointer resolves to nothing (it used to alias the
    // other device's storage byte for byte).
    EXPECT_EQ(fleet.at(0).resolve(p1, 16), nullptr);
    EXPECT_EQ(fleet.at(0).baseOf(p1), 0u);
}

TEST(DeviceFleetTest, CrossDevicePointerIsRejectedAtLaunch)
{
    Clock clock;
    gpu::DeviceFleet fleet(fleetConfig(2));
    gpu::GpuContext ctx0(fleet.at(0), clock);
    gpu::GpuContext ctx1(fleet.at(1), clock);

    DevicePtr mine = 0, foreign = 0;
    ASSERT_EQ(ctx0.memAlloc(&mine, 1024), CuResult::Success);
    ASSERT_EQ(ctx1.memAlloc(&foreign, 1024), CuResult::Success);

    gpu::LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.arg(mine).arg(mine).arg(foreign);
    cfg.args.push_back(16); // element count (scalar, below kVaBase)
    EXPECT_EQ(ctx0.launchKernel(cfg), CuResult::InvalidValue);
    EXPECT_EQ(fleet.at(0).launches(), 0u);
    EXPECT_EQ(fleet.at(1).launches(), 0u);

    // The same launch with only owned pointers goes through.
    gpu::LaunchConfig ok;
    ok.kernel = "vec_add";
    ok.arg(mine).arg(mine).arg(mine);
    ok.args.push_back(16);
    EXPECT_EQ(ctx0.launchKernel(ok), CuResult::Success);
    EXPECT_EQ(fleet.at(0).launches(), 1u);

    // Copies are covered by resolve(): a foreign destination fails.
    std::vector<std::uint8_t> buf(64, 0xab);
    EXPECT_EQ(ctx0.memcpyHtoD(foreign, buf.data(), buf.size()),
              CuResult::InvalidValue);
}

TEST(DeviceFleetTest, MigWeightsScaleRatesNotOverheads)
{
    gpu::FleetConfig cfg = fleetConfig(2);
    cfg.weights = {1.0, 0.5};
    gpu::DeviceFleet fleet(cfg);
    const gpu::DeviceSpec &full = fleet.at(0).spec();
    const gpu::DeviceSpec &half = fleet.at(1).spec();
    EXPECT_DOUBLE_EQ(half.effective_gflops, full.effective_gflops * 0.5);
    EXPECT_DOUBLE_EQ(half.pcie_gbps, full.pcie_gbps * 0.5);
    EXPECT_EQ(half.mem_capacity, full.mem_capacity / 2);
    // Fixed costs are per-operation, not per-slice.
    EXPECT_EQ(half.launch_overhead, full.launch_overhead);
    EXPECT_EQ(half.transfer_overhead, full.transfer_overhead);
}

TEST(DeviceFleetTest, EnvKnobsApplyOnRequest)
{
    ::setenv("LAKE_FLEET", "1", 1);
    ::setenv("LAKE_DEVICES", "4", 1);
    ::setenv("LAKE_SHARDS", "8", 1); // clamped to devices
    gpu::FleetConfig cfg;
    cfg.applyEnv();
    ::unsetenv("LAKE_FLEET");
    ::unsetenv("LAKE_DEVICES");
    ::unsetenv("LAKE_SHARDS");
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.devices, 4u);
    EXPECT_EQ(cfg.shards, 4u);
    // A default-constructed config never reads the environment.
    EXPECT_FALSE(gpu::FleetConfig{}.enabled);
}

// ---- bugfix 2: per-shard degradation -------------------------------

TEST(ShardFleetTest, OneSickShardDoesNotDegradeTheFleet)
{
    gpu::DeviceFleet fleet(fleetConfig(2, 2));
    remote::ShardParams params;
    params.degrade_threshold = 3;
    remote::ShardFleet shards(fleet, 2, params);

    // Shard 0's transport goes dark; shard 1's stays clean.
    FaultSpec spec;
    spec.drop = 1.0;
    shards.shard(0).channel().installFaults(spec);

    for (std::size_t i = 0; i < params.degrade_threshold; ++i)
        EXPECT_EQ(shards.shard(0).lib().cuCtxSynchronize(),
                  CuResult::Unavailable);

    EXPECT_TRUE(shards.shard(0).health().degraded.load());
    // Pre-fix the latch was Lake-global: shard 0's failures would have
    // marked every remoting lane degraded.
    EXPECT_FALSE(shards.shard(1).health().degraded.load());

    // The healthy shard still executes work end to end.
    DevicePtr p = 0;
    EXPECT_EQ(shards.shard(1).lib().cuMemAlloc(&p, 4096),
              CuResult::Success);
    EXPECT_EQ(fleet.ownerOf(p), 1u);

    // And the router routes around the sick shard: the first key is
    // round-robin-seeded onto device 0, whose shard is vetoed, so the
    // placement hunts to device 1 and re-pins the key there.
    remote::FleetRouter router(shards,
                               policy::FleetPlacementPolicy::Config{});
    policy::PolicyInput in;
    in.batch_size = 16;
    in.now = shards.shard(1).clock().now();
    policy::Placement p1 = router.placeFor("reg", in);
    EXPECT_EQ(p1.engine, policy::Engine::Gpu);
    EXPECT_EQ(p1.device, 1u);
    EXPECT_EQ(router.migrations(), 1u);
    EXPECT_EQ(router.lastPlacement("reg"), 1u);

    // Operator re-arm clears only the sick shard's latch.
    shards.shard(0).health().reset();
    EXPECT_FALSE(shards.shard(0).health().degraded.load());
}

// ---- bugfix 3: per-device probe state ------------------------------

TEST(FleetPlacementPolicyTest, PerDeviceSmoothersSteerBetweenDevices)
{
    int calls0 = 0, calls1 = 0;
    std::vector<policy::UtilProbe> probes;
    probes.push_back([&](Nanos) {
        ++calls0;
        return 100.0; // device 0 saturated
    });
    probes.push_back([&](Nanos) {
        ++calls1;
        return 0.0; // device 1 idle
    });
    policy::FleetPlacementPolicy::Config cfg;
    policy::FleetPlacementPolicy pol(std::move(probes), cfg);

    policy::PolicyInput in;
    in.batch_size = 16;
    in.now = 0;
    policy::Placement p = pol.place(in, /*sticky=*/0);
    // Pre-fix a single MovingAverage blended the two readings to 50%
    // (over the 40% threshold) and the policy refused both devices;
    // per-device smoothers see 100% vs 0% and steer to device 1.
    EXPECT_EQ(p.engine, policy::Engine::Gpu);
    EXPECT_EQ(p.device, 1u);
    EXPECT_EQ(calls0, 1);
    EXPECT_EQ(calls1, 1);
    EXPECT_DOUBLE_EQ(pol.smoothedUtilization(0), 100.0);
    EXPECT_DOUBLE_EQ(pol.smoothedUtilization(1), 0.0);

    // Probes are rate-limited per device: a decision inside the probe
    // interval reuses the smoothed value without re-probing.
    in.now = 1_ms;
    p = pol.place(in, 1);
    EXPECT_EQ(p.device, 1u);
    EXPECT_EQ(calls1, 1);

    // The staleness reset is per device too: a long idle gap drops
    // only the decided device's window and rebuilds it from a fresh
    // reading (device 0's state is untouched by device 1's reset).
    in.now = 1_ms +
             cfg.contention.probe_interval * (cfg.contention.stale_windows + 2);
    p = pol.place(in, 1);
    EXPECT_EQ(p.device, 1u);
    EXPECT_EQ(calls1, 2);
    EXPECT_DOUBLE_EQ(pol.smoothedUtilization(1), 0.0);
    EXPECT_DOUBLE_EQ(pol.smoothedUtilization(0), 100.0);

    // Below the profitability crossover nothing probes for the GPU win.
    in.batch_size = 1;
    p = pol.place(in, 1);
    EXPECT_EQ(p.engine, policy::Engine::Cpu);
}

// ---- CuSetDevice muxing --------------------------------------------

TEST(ShardFleetTest, CuSetDeviceTargetsTheActivatedDevice)
{
    gpu::DeviceFleet fleet(fleetConfig(2, 1));
    remote::ShardParams params;
    remote::ShardFleet shards(fleet, 1, params);
    ASSERT_EQ(shards.shard(0).deviceCount(), 2u);
    remote::LakeShard &sh = shards.shard(0);

    DevicePtr p0 = 0, p1 = 0;
    ASSERT_EQ(sh.lib().cuMemAlloc(&p0, 4096), CuResult::Success);
    EXPECT_EQ(fleet.ownerOf(p0), 0u);

    ASSERT_EQ(sh.activate(1), CuResult::Success);
    ASSERT_EQ(sh.lib().cuMemAlloc(&p1, 4096), CuResult::Success);
    EXPECT_EQ(fleet.ownerOf(p1), 1u);

    // Re-activating the active device is elided entirely (no wire
    // traffic): the single-device bit-identity guarantee rests on it.
    std::uint64_t calls = sh.lib().calls();
    EXPECT_EQ(sh.activate(1), CuResult::Success);
    EXPECT_EQ(sh.lib().calls(), calls);

    // Launches land on the active device only.
    std::vector<float> host(16, 1.0f);
    ASSERT_EQ(sh.lib().cuMemcpyHtoD(p1, host.data(),
                                    host.size() * sizeof(float)),
              CuResult::Success);
    gpu::LaunchConfig cfg;
    cfg.kernel = "vec_add";
    cfg.arg(p1).arg(p1).arg(p1);
    cfg.args.push_back(16);
    ASSERT_EQ(sh.lib().cuLaunchKernel(cfg), CuResult::Success);
    ASSERT_EQ(sh.lib().cuCtxSynchronize(), CuResult::Success);
    EXPECT_EQ(fleet.at(1).launches(), 1u);
    EXPECT_EQ(fleet.at(0).launches(), 0u);

    // The daemon rejects an out-of-range device index.
    EXPECT_EQ(sh.lib().cuSetDevice(7), CuResult::InvalidValue);
}

TEST(ShardFleetTest, LostSetDeviceResponseForcesTheNextSwitch)
{
    gpu::DeviceFleet fleet(fleetConfig(2, 1));
    remote::ShardParams params;
    remote::ShardFleet shards(fleet, 1, params);
    remote::LakeShard &sh = shards.shard(0);

    // Every response is lost: the daemon switches to device 1 as soon
    // as the request arrives, but lakeLib only sees the failure.
    FaultSpec spec;
    spec.drop = 1.0;
    spec.kernel_to_user = false;
    sh.channel().installFaults(spec);
    EXPECT_EQ(sh.activate(1), CuResult::Unavailable);
    sh.channel().faults()->disarm();

    // Pre-fix lakeLib still believed device 0 active and elided this
    // switch, so the allocation landed on device 1.
    ASSERT_EQ(sh.activate(0), CuResult::Success);
    DevicePtr p = 0;
    ASSERT_EQ(sh.lib().cuMemAlloc(&p, 4096), CuResult::Success);
    EXPECT_EQ(fleet.ownerOf(p), 0u);
}

// ---- 1-device fleet bit-identity -----------------------------------

TEST(ShardFleetTest, OneDeviceFleetIsBitIdenticalToPlainStack)
{
    // The classic (non-fleet) remoting stack...
    struct Plain
    {
        Clock clock;
        gpu::Device dev{gpu::DeviceSpec::a100()};
        shm::ShmArena arena{128ull << 20};
        channel::Channel chan{channel::Kind::Netlink, clock};
        remote::LakeDaemon daemon{chan, arena, dev, clock};
        remote::LakeLib lib{chan, arena, [this] { daemon.processPending(); }};
    } a;
    auto last = std::make_shared<double>(100.0);
    policy::UtilProbe probe_a = [&a, last](Nanos) {
        remote::RemoteUtilization u;
        if (a.lib.nvmlGetUtilization(&u) == CuResult::Success)
            *last = static_cast<double>(u.gpu);
        return *last;
    };
    policy::FleetPlacementPolicy pol_a(
        {probe_a}, {.contention = policy::ContentionConfig{}});

    // ...versus a 1-device, 1-shard fleet routed by the placement
    // policy. Identical decisions, scores, wire traffic and virtual
    // time are the acceptance bar for fleet-off-by-default.
    gpu::DeviceFleet fleet(fleetConfig(1, 1));
    remote::ShardParams params;
    remote::ShardFleet shards(fleet, 1, params);
    remote::FleetRouter router(shards,
                               policy::FleetPlacementPolicy::Config{});
    std::unique_ptr<policy::ExecPolicy> pol_b = router.policyFor("reg");
    remote::LakeShard &sh = shards.shard(0);

    Rng model_rng_a(42), model_rng_b(42);
    ml::Mlp model_a(ml::MlpConfig::linnos(), model_rng_a);
    ml::Mlp model_b(ml::MlpConfig::linnos(), model_rng_b);
    ml::KernelCpu cpu_a(a.clock, gpu::CpuSpec::xeonGold6226R());
    ml::KernelCpu cpu_b(sh.clock(), gpu::CpuSpec::xeonGold6226R());
    ml::CpuMlp cpu_mlp_a(model_a, cpu_a);
    ml::CpuMlp cpu_mlp_b(model_b, cpu_b);
    ml::LakeMlp gpu_mlp_a(model_a, a.lib, /*sync_copy=*/true,
                          /*max_batch=*/32);
    ml::LakeMlp gpu_mlp_b(model_b, sh.lib(), /*sync_copy=*/true,
                          /*max_batch=*/32);
    ASSERT_EQ(a.clock.now(), sh.clock().now());

    Rng drive(7);
    std::size_t gpu_rounds = 0;
    for (int round = 0; round < 40; ++round) {
        Nanos gap = drive.uniformInt(0, 4'000'000);
        a.clock.advance(gap);
        sh.clock().advance(gap);

        std::size_t batch = drive.uniformInt(1, 32);
        ml::Matrix x(batch, model_a.config().input);
        for (std::size_t r = 0; r < x.rows(); ++r)
            for (std::size_t c = 0; c < x.cols(); ++c)
                x.at(r, c) = static_cast<float>(drive.uniform(0.0, 1.0));

        policy::PolicyInput in_a{batch, a.clock.now()};
        policy::PolicyInput in_b{batch, sh.clock().now()};
        policy::Engine e_a = pol_a.decide(in_a);
        policy::Engine e_b = pol_b->decide(in_b);
        ASSERT_EQ(e_a, e_b) << "round " << round;

        std::vector<int> labels_a, labels_b;
        if (e_a == policy::Engine::Gpu) {
            ++gpu_rounds;
            labels_a = gpu_mlp_a.classify(x);
            labels_b = gpu_mlp_b.classify(x);
        } else {
            labels_a = cpu_mlp_a.classify(x);
            labels_b = cpu_mlp_b.classify(x);
        }
        ASSERT_EQ(labels_a, labels_b) << "round " << round;
        ASSERT_EQ(a.clock.now(), sh.clock().now()) << "round " << round;
    }
    // The property is vacuous unless both engines were exercised.
    EXPECT_GT(gpu_rounds, 0u);
    EXPECT_LT(gpu_rounds, 40u);
    EXPECT_EQ(a.lib.calls(), sh.lib().calls());
    EXPECT_EQ(a.dev.launches(), fleet.at(0).launches());
    EXPECT_EQ(router.migrations(), 0u);
}

// ---- FleetMlp: the one fleet dispatch path --------------------------

/**
 * 4 devices behind 2 shards: device 2 shares shard 0 with device 0 at
 * daemon-local index 1, so reaching it after a device-0 batch takes a
 * CuSetDevice on the wire. Round-robin seeding pins "d0" to device 0,
 * "d1" to 1 and "pinned" to 2.
 */
class FleetMlpTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ASSERT_EQ(router.lastPlacement("d0"), 0u);
        ASSERT_EQ(router.lastPlacement("d1"), 1u);
        ASSERT_EQ(router.lastPlacement("pinned"), 2u);
    }

    ml::Matrix
    batch()
    {
        ml::Matrix x(16, model.config().input);
        for (std::size_t r = 0; r < x.rows(); ++r)
            for (std::size_t c = 0; c < x.cols(); ++c)
                x.at(r, c) = static_cast<float>(drive.uniform(0.0, 1.0));
        return x;
    }

    gpu::DeviceFleet fleet{fleetConfig(4, 2)};
    remote::ShardFleet shards{fleet, 2, remote::ShardParams{}};
    remote::FleetRouter router{shards,
                               policy::FleetPlacementPolicy::Config{}};
    Rng model_rng{42};
    ml::Mlp model{ml::MlpConfig::linnos(), model_rng};
    ml::FleetMlp mlp{model, router, /*sync_copy=*/true, /*max_batch=*/32};
    Clock cpu_clock;
    ml::KernelCpu cpu{cpu_clock, gpu::CpuSpec::xeonGold6226R()};
    ml::CpuMlp cpu_mlp{model, cpu};
    Rng drive{7};
};

TEST_F(FleetMlpTest, ServesOnThePinnedDeviceOnly)
{
    ml::Matrix x0 = batch();
    ml::FleetMlp::Served first = mlp.classify("d0", x0, cpu_mlp);
    ASSERT_EQ(first.device, std::optional<std::size_t>(0));
    EXPECT_EQ(first.labels, cpu_mlp.classify(x0));

    std::vector<std::uint64_t> launches;
    for (std::size_t d = 0; d < fleet.size(); ++d)
        launches.push_back(fleet.at(d).launches());
    ml::Matrix x = batch();
    ml::FleetMlp::Served s = mlp.classify("pinned", x, cpu_mlp);

    ASSERT_EQ(s.device, std::optional<std::size_t>(2));
    EXPECT_EQ(s.labels, cpu_mlp.classify(x));
    for (std::size_t d = 0; d < fleet.size(); ++d) {
        if (d == 2)
            EXPECT_GT(fleet.at(d).launches(), launches[d]);
        else
            EXPECT_EQ(fleet.at(d).launches(), launches[d]) << "device " << d;
        EXPECT_EQ(router.pendingDepth(d), 0u);
    }
    EXPECT_EQ(shards.shard(0).health().fallbacks.load(), 0u);
}

TEST_F(FleetMlpTest, MidBatchFaultFinishesOnCpu)
{
    // Device 2's shard goes dark after the upload.
    remote::LakeShard &sick = shards.shardFor(2);
    remote::LakeShard &other = shards.shard(1);
    ASSERT_NE(&sick, &other);
    FaultSpec spec;
    spec.drop = 1.0;
    sick.channel().installFaults(spec);
    std::uint64_t other_calls = other.lib().calls();
    Nanos other_now = other.clock().now();
    std::uint64_t fallbacks = sick.health().fallbacks.load();

    ml::Matrix x = batch();
    ml::FleetMlp::Served s = mlp.classify("pinned", x, cpu_mlp);

    EXPECT_FALSE(s.device.has_value());
    EXPECT_EQ(s.labels, cpu_mlp.classify(x));
    EXPECT_EQ(sick.health().fallbacks.load(), fallbacks + 1);
    EXPECT_EQ(router.pendingDepth(2), 0u);
    EXPECT_EQ(other.lib().calls(), other_calls);
    EXPECT_EQ(other.clock().now(), other_now);
    EXPECT_EQ(other.health().fallbacks.load(), 0u);
    EXPECT_FALSE(other.health().degraded.load());
}

// ---- core::Lake over the fleet -------------------------------------

TEST(LakeFleetTest, DefaultLakeIsAFleetOfOne)
{
    core::Lake lake;
    ASSERT_EQ(lake.fleet().size(), 1u);
    ASSERT_EQ(lake.shardFleet().size(), 1u);
    // The single-lane accessors name shard 0 and device 0: there is no
    // second remoting stack beside the fleet.
    remote::LakeShard &sh = lake.shardFleet().shard(0);
    EXPECT_EQ(&lake.lib(), &sh.lib());
    EXPECT_EQ(&lake.daemon(), &sh.daemon());
    EXPECT_EQ(&lake.clock(), &sh.clock());
    EXPECT_EQ(&lake.device(), &lake.fleet().at(0));
    EXPECT_EQ(&lake.router().shards(), &lake.shardFleet());
}

TEST(LakeFleetTest, FleetModeBootsShardsThatDegradeAlone)
{
    core::LakeConfig cfg;
    cfg.fleet = fleetConfig(2, 2);
    cfg.fleet.spec = gpu::DeviceSpec::modest();
    core::Lake lake(cfg);
    ASSERT_EQ(lake.fleet().size(), 2u);
    ASSERT_EQ(lake.shardFleet().size(), 2u);
    for (std::size_t d = 0; d < lake.fleet().size(); ++d)
        EXPECT_EQ(lake.fleet().at(d).spec().effective_gflops,
                  cfg.fleet.spec.effective_gflops);

    // Shard 1's transport goes dark; shard 0 (Lake's own lane) stays
    // clean.
    remote::LakeShard &sick = lake.shardFleet().shard(1);
    FaultSpec spec;
    spec.drop = 1.0;
    sick.channel().installFaults(spec);
    for (std::size_t i = 0; i < cfg.degrade_threshold; ++i)
        EXPECT_EQ(sick.lib().cuCtxSynchronize(), CuResult::Unavailable);
    EXPECT_TRUE(lake.remoteStats(1).degraded);
    EXPECT_GT(lake.remoteStats(1).faults_seen, 0u);
    EXPECT_FALSE(lake.degraded());
    EXPECT_FALSE(lake.remoteStats().degraded);

    // Round-robin seeds key "a" on device 0 and key "b" on device 1;
    // the router vetoes the degraded device and places both on 0.
    std::unique_ptr<policy::ExecPolicy> a = lake.router().policyFor("a");
    std::unique_ptr<policy::ExecPolicy> b = lake.router().policyFor("b");
    policy::PolicyInput in;
    in.batch_size = 16;
    in.now = lake.clock().now();
    EXPECT_EQ(a->decide(in), policy::Engine::Gpu);
    EXPECT_EQ(b->decide(in), policy::Engine::Gpu);
    EXPECT_EQ(lake.router().lastPlacement("a"), 0u);
    EXPECT_EQ(lake.router().lastPlacement("b"), 0u);
    EXPECT_EQ(lake.router().migrations(), 1u);
}

// ---- K-shard concurrent dispatch (TSan) ----------------------------

TEST(ShardFleetTest, ConcurrentShardDispatchUnderMultiTenantLoad)
{
    constexpr std::size_t kShards = 4;
    gpu::DeviceFleet fleet(fleetConfig(kShards, kShards));
    remote::ShardParams params;
    remote::ShardFleet shards(fleet, kShards, params);
    remote::FleetRouter router(shards,
                               policy::FleetPlacementPolicy::Config{});
    Rng model_rng(42);
    ml::Mlp model(ml::MlpConfig::linnos(), model_rng);
    ml::FleetMlp mlp(model, router, /*sync_copy=*/true,
                     registry::ScoringConfig{}.max_batch);

    // One serving stack per worker thread: its own clock, manager and
    // tenant population. The threads meet in the router (placement) and
    // in each other's shards (probes and FleetMlp dispatches cross
    // shard mutexes), which is exactly the surface TSan must see clean.
    auto worker = [&](std::size_t k) {
        Clock clock;
        ml::KernelCpu cpu(clock, gpu::CpuSpec::xeonGold6226R());
        ml::CpuMlp cpu_mlp(model, cpu);
        registry::RegistryManager mgr(clock);
        std::string key = "worker" + std::to_string(k);
        const char *kSys = "fleet_stress";

        registry::Classifier cpu_classify =
            [](const registry::FvBatchView &v) {
                return std::vector<float>(v.size(), 0.0f);
            };
        registry::Classifier gpu_classify =
            [&, key](const registry::FvBatchView &v) {
                ml::Matrix x(v.size(), model.config().input);
                std::vector<int> c = mlp.classify(key, x, cpu_mlp).labels;
                return std::vector<float>(c.begin(), c.end());
            };

        registry::Schema schema;
        schema.add("tenant");
        ASSERT_TRUE(mgr.createRegistry(key, kSys, schema, 4).isOk());
        registry::Registry *reg = mgr.find(key, kSys);
        ASSERT_NE(reg, nullptr);
        ASSERT_TRUE(
            reg->registerClassifier(registry::Arch::Cpu, cpu_classify)
                .isOk());
        ASSERT_TRUE(
            reg->registerClassifier(registry::Arch::Gpu, gpu_classify)
                .isOk());
        reg->registerPolicy(router.policyFor(key));
        registry::ScoringConfig scfg;
        scfg.enabled = true;
        ASSERT_TRUE(mgr.enableScoring(scfg).isOk());

        serve::ServeConfig cfg;
        cfg.enabled = true;
        cfg.tenants = 8;
        cfg.rate_rps = 20000.0;
        cfg.seed = 0x1a4e + k;
        serve::TrafficGenerator gen(mgr, clock, cfg, kSys,
                                    {key});
        gen.run(1_ms);
        serve::ServeSummary s = gen.summary(1_ms);
        EXPECT_GT(s.admits, 0u);
    };

    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kShards; ++k)
        threads.emplace_back(worker, k);
    for (auto &t : threads)
        t.join();

    // Every dispatch was balanced by a completion.
    for (std::size_t d = 0; d < fleet.size(); ++d)
        EXPECT_EQ(router.pendingDepth(d), 0u);
    EXPECT_GT(shards.totalCalls(), 0u);
    EXPECT_GT(shards.makespan(), 0u);
}
