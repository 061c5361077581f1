// Tests for execution policies and the eBPF-like policy VM.

#include <gtest/gtest.h>

#include <vector>

#include "policy/bpf.h"
#include "policy/mlgate.h"
#include "policy/policy.h"

namespace lake::policy {
namespace {

TEST(PolicyTest, AlwaysPolicies)
{
    AlwaysCpuPolicy cpu;
    AlwaysGpuPolicy gpu;
    PolicyInput in;
    in.batch_size = 1000;
    EXPECT_EQ(cpu.decide(in), Engine::Cpu);
    EXPECT_EQ(gpu.decide(in), Engine::Gpu);
}

TEST(PolicyTest, BatchThreshold)
{
    BatchThresholdPolicy p(8);
    PolicyInput in;
    in.batch_size = 7;
    EXPECT_EQ(p.decide(in), Engine::Cpu);
    in.batch_size = 8;
    EXPECT_EQ(p.decide(in), Engine::Gpu);
    in.batch_size = 9;
    EXPECT_EQ(p.decide(in), Engine::Gpu);
}

TEST(CrossoverTest, TieIsNotProfitable)
{
    const std::size_t grid[] = {1, 2, 4};
    EXPECT_EQ(crossover(grid,
                        [](std::size_t b) {
                            return EngineCosts{10.0, b < 4 ? 10.0 : 9.0};
                        }),
              4u);
}

TEST(CrossoverTest, ZeroWhenNoPointPays)
{
    const std::size_t grid[] = {1, 2, 4, 8};
    EXPECT_EQ(crossover(grid,
                        [](std::size_t b) {
                            return EngineCosts{1.0, 2.0 * b};
                        }),
              0u);
    EXPECT_EQ(crossover({}, [](std::size_t) { return EngineCosts{}; }), 0u);
}

TEST(CrossoverTest, VisitsInOrderOncePerPointAndStopsAtFirstWin)
{
    // GPU wins at 16 and again at 64: only the first win counts, and
    // nothing past it is measured.
    const std::size_t grid[] = {2, 8, 16, 32, 64};
    std::vector<std::size_t> visited;
    std::size_t got = crossover(grid, [&](std::size_t b) {
        visited.push_back(b);
        return EngineCosts{20.0, b == 16 || b == 64 ? 1.0 : 30.0};
    });
    EXPECT_EQ(got, 16u);
    EXPECT_EQ(visited, (std::vector<std::size_t>{2, 8, 16}));
}

TEST(ContentionPolicyTest, FallsBackUnderContention)
{
    double util = 0.0;
    int probes = 0;
    ContentionConfig cfg;
    cfg.probe_interval = 5_ms;
    cfg.avg_window = 2;
    cfg.exec_threshold = 40.0;
    cfg.batch_threshold = 4;
    FleetPlacementPolicy p({[&](Nanos) {
                               ++probes;
                               return util;
                           }},
                           {.contention = cfg});

    PolicyInput in;
    in.batch_size = 16;
    in.now = 0;
    EXPECT_EQ(p.decide(in), Engine::Gpu); // idle GPU, big batch

    // GPU becomes contended: avg (0+90)/2 = 45 >= 40 -> CPU.
    util = 90.0;
    in.now = 5_ms;
    EXPECT_EQ(p.decide(in), Engine::Cpu);
    in.now = 10_ms;
    EXPECT_EQ(p.decide(in), Engine::Cpu); // avg now 90
    // GPU frees up; one probe halves the average (45, still over)...
    util = 0.0;
    in.now = 15_ms;
    EXPECT_EQ(p.decide(in), Engine::Cpu);
    // ...and the second brings it to 0: reclaim the GPU.
    in.now = 20_ms;
    EXPECT_EQ(p.decide(in), Engine::Gpu);
}

TEST(ContentionPolicyTest, ProbeRateLimited)
{
    int probes = 0;
    ContentionConfig cfg;
    cfg.probe_interval = 5_ms;
    FleetPlacementPolicy p({[&](Nanos) {
                               ++probes;
                               return 0.0;
                           }},
                           {.contention = cfg});

    PolicyInput in;
    in.batch_size = 100;
    for (Nanos t = 0; t < 5_ms; t += 100_us) {
        in.now = t;
        p.decide(in);
    }
    EXPECT_EQ(probes, 1); // one probe in the first 5 ms window
    in.now = 5_ms;
    p.decide(in);
    EXPECT_EQ(probes, 2);
}

// Regression (ISSUE 7): utilization is only sampled inside decide(),
// so the first decision after a long idle gap averaged one fresh probe
// against readings of arbitrary age. A bursty arrival trace — busy
// phase, long gap, burst — must not steer the post-gap burst by
// contention observed before the gap.
TEST(ContentionPolicyTest, DropsStaleWindowAfterIdleGap)
{
    double util = 90.0;
    ContentionConfig cfg;
    cfg.probe_interval = 5_ms;
    cfg.avg_window = 4;
    cfg.exec_threshold = 40.0;
    cfg.batch_threshold = 4;
    cfg.stale_windows = 8; // window is stale after 40 ms unprobed
    FleetPlacementPolicy p({[&](Nanos) { return util; }},
                           {.contention = cfg});

    PolicyInput in;
    in.batch_size = 16;
    // Busy phase: the window fills with high readings.
    for (Nanos t = 0; t <= 15_ms; t += 5_ms) {
        in.now = t;
        EXPECT_EQ(p.decide(in), Engine::Cpu);
    }
    EXPECT_NEAR(p.smoothedUtilization(), 90.0, 1e-9);

    // Long idle gap; the GPU drains to 0% during it. The first
    // post-gap decision must act on a fresh probe, not on a window
    // whose newest reading is 485 ms old (pre-fix: (90*3 + 0)/4 =
    // 67.5 >= 40 -> Cpu even though the GPU is idle).
    util = 0.0;
    in.now = 500_ms;
    EXPECT_EQ(p.decide(in), Engine::Gpu);
    EXPECT_NEAR(p.smoothedUtilization(), 0.0, 1e-9);
}

TEST(ContentionPolicyTest, StaleResetDisabledKeepsWindow)
{
    double util = 90.0;
    ContentionConfig cfg;
    cfg.probe_interval = 5_ms;
    cfg.avg_window = 4;
    cfg.exec_threshold = 40.0;
    cfg.batch_threshold = 4;
    cfg.stale_windows = 0; // opt out: pre-fix smoothing semantics
    FleetPlacementPolicy p({[&](Nanos) { return util; }},
                           {.contention = cfg});

    PolicyInput in;
    in.batch_size = 16;
    for (Nanos t = 0; t <= 15_ms; t += 5_ms) {
        in.now = t;
        p.decide(in);
    }
    util = 0.0;
    in.now = 500_ms;
    // With the reset disabled the stale readings still dominate.
    EXPECT_EQ(p.decide(in), Engine::Cpu);
    EXPECT_NEAR(p.smoothedUtilization(), 67.5, 1e-9);
}

// Regression (ISSUE 7): `in.now - last_probe_` is unsigned; a
// non-monotone `now` (two sync score paths sharing one policy) wrapped
// the interval check and defeated the probe rate limit.
TEST(ContentionPolicyTest, NonMonotoneNowDoesNotWrapProbeInterval)
{
    int probes = 0;
    ContentionConfig cfg;
    cfg.probe_interval = 5_ms;
    cfg.avg_window = 4;
    FleetPlacementPolicy p({[&](Nanos) {
                               ++probes;
                               return 0.0;
                           }},
                           {.contention = cfg});

    PolicyInput in;
    in.batch_size = 100;
    in.now = 10_ms;
    p.decide(in);
    EXPECT_EQ(probes, 1);
    // 1 ms in the past: must read as "no time elapsed", not as a
    // 2^64-scale interval (pre-fix: re-probes, and with the staleness
    // bound would also wrongly drop the window).
    in.now = 9_ms;
    p.decide(in);
    EXPECT_EQ(probes, 1);
    // Time resumes: the rate limit picks up from the newest probe.
    in.now = 15_ms;
    p.decide(in);
    EXPECT_EQ(probes, 2);
}

TEST(ContentionPolicyTest, SmallBatchStaysOnCpu)
{
    ContentionConfig cfg;
    cfg.batch_threshold = 8;
    FleetPlacementPolicy p({[](Nanos) { return 0.0; }},
                           {.contention = cfg});
    PolicyInput in;
    in.batch_size = 3;
    EXPECT_EQ(p.decide(in), Engine::Cpu);
}

// ---- MlGate (§7.1 future-work modulation) ---------------------------

TEST(MlGateTest, StartsOpenAndStaysOpenWhileUseful)
{
    MlGate::Config cfg;
    cfg.window = 64;
    cfg.min_positive_rate = 0.01;
    MlGate gate(cfg);

    for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(gate.shouldInfer(i * 1_ms));
        gate.observe(2, 16, i * 1_ms); // 12.5% positives: ML is useful
    }
    EXPECT_FALSE(gate.gated());
    EXPECT_EQ(gate.closures(), 0u);
}

TEST(MlGateTest, ClosesAfterAWindowOfNothing)
{
    MlGate::Config cfg;
    cfg.window = 64;
    cfg.min_positive_rate = 0.01;
    MlGate gate(cfg);

    Nanos t = 0;
    while (!gate.gated()) {
        ASSERT_TRUE(gate.shouldInfer(t));
        gate.observe(0, 16, t);
        t += 1_ms;
        ASSERT_LT(t, 1_s) << "gate never closed";
    }
    EXPECT_EQ(gate.closures(), 1u);
    // Immediately after closing, inference is suppressed...
    EXPECT_FALSE(gate.shouldInfer(t));
}

TEST(MlGateTest, ProbesWhileClosedAndReopensOnPositives)
{
    MlGate::Config cfg;
    cfg.window = 32;
    cfg.min_positive_rate = 0.01;
    cfg.probe_interval = 10_ms;
    MlGate gate(cfg);

    Nanos t = 0;
    for (int i = 0; i < 4; ++i, t += 1_ms) {
        gate.shouldInfer(t);
        gate.observe(0, 16, t);
    }
    ASSERT_TRUE(gate.gated());

    // Within the probe interval: suppressed.
    EXPECT_FALSE(gate.shouldInfer(t + 1_ms));
    // After it: one probe allowed.
    Nanos probe_t = t + 11_ms;
    EXPECT_TRUE(gate.shouldInfer(probe_t));
    // A fruitless probe keeps the gate closed...
    gate.observe(0, 16, probe_t);
    EXPECT_TRUE(gate.gated());
    EXPECT_FALSE(gate.shouldInfer(probe_t + 1_ms));
    // ...a fruitful one reopens it.
    Nanos probe2 = probe_t + 11_ms;
    ASSERT_TRUE(gate.shouldInfer(probe2));
    gate.observe(3, 16, probe2);
    EXPECT_FALSE(gate.gated());
    EXPECT_EQ(gate.reopenings(), 1u);
}

TEST(MlGateTest, EmptyObservationsIgnored)
{
    MlGate gate;
    gate.observe(0, 0, 0);
    EXPECT_FALSE(gate.gated());
}

// Regression (ISSUE 7 wrap audit): a shouldInfer()/probeDue() call
// with `now` earlier than the gate-closing observation wrapped
// `now - last_probe_` and released a probe immediately.
TEST(MlGateTest, NonMonotoneNowDoesNotReleaseProbe)
{
    MlGate::Config cfg;
    cfg.window = 4;
    cfg.min_positive_rate = 0.5;
    cfg.probe_interval = 10_ms;
    MlGate gate(cfg);

    gate.shouldInfer(20_ms);
    gate.observe(0, 4, 20_ms); // closes the gate, last probe = 20 ms
    ASSERT_TRUE(gate.gated());

    EXPECT_FALSE(gate.probeDue(15_ms));
    EXPECT_FALSE(gate.shouldInfer(15_ms));
    // Monotone behaviour unchanged: a probe is due after the interval.
    EXPECT_TRUE(gate.probeDue(30_ms));
    EXPECT_TRUE(gate.shouldInfer(30_ms));
}

// ---- BPF VM ---------------------------------------------------------

TEST(BpfVerifierTest, RejectsEmptyProgram)
{
    BpfVm vm;
    EXPECT_FALSE(vm.verify({}, 4).isOk());
}

TEST(BpfVerifierTest, RejectsMissingExit)
{
    BpfVm vm;
    std::vector<BpfInsn> prog = {{BpfOp::MovImm, 0, 0, 0, 1}};
    EXPECT_FALSE(vm.verify(prog, 4).isOk());
}

TEST(BpfVerifierTest, RejectsBackwardJump)
{
    BpfVm vm;
    std::vector<BpfInsn> prog = {
        {BpfOp::MovImm, 0, 0, 0, 0},
        {BpfOp::Ja, 0, 0, -1, 0},
        {BpfOp::Exit, 0, 0, 0, 0},
    };
    Status st = vm.verify(prog, 4);
    EXPECT_FALSE(st.isOk());
    EXPECT_NE(st.message().find("backward"), std::string::npos);
}

TEST(BpfVerifierTest, RejectsJumpPastEnd)
{
    BpfVm vm;
    std::vector<BpfInsn> prog = {
        {BpfOp::Ja, 0, 0, 5, 0},
        {BpfOp::Exit, 0, 0, 0, 0},
    };
    EXPECT_FALSE(vm.verify(prog, 4).isOk());
}

TEST(BpfVerifierTest, RejectsBadRegisters)
{
    BpfVm vm;
    std::vector<BpfInsn> prog = {
        {BpfOp::MovImm, 11, 0, 0, 0}, // r11 does not exist
        {BpfOp::Exit, 0, 0, 0, 0},
    };
    EXPECT_FALSE(vm.verify(prog, 4).isOk());
}

TEST(BpfVerifierTest, RejectsOutOfBoundsContext)
{
    BpfVm vm;
    std::vector<BpfInsn> prog = {
        {BpfOp::LdCtx, 1, 0, 0, 4}, // ctx has 4 slots: 0..3
        {BpfOp::Exit, 0, 0, 0, 0},
    };
    EXPECT_FALSE(vm.verify(prog, 4).isOk());
    prog[0].imm = 3;
    EXPECT_TRUE(vm.verify(prog, 4).isOk());
}

TEST(BpfVerifierTest, RejectsUnregisteredHelper)
{
    BpfVm vm;
    std::vector<BpfInsn> prog = {
        {BpfOp::Call, 0, 0, 0, 7},
        {BpfOp::Exit, 0, 0, 0, 0},
    };
    EXPECT_FALSE(vm.verify(prog, 4).isOk());
    vm.registerHelper(7, [](const auto &) { return 0ull; });
    EXPECT_TRUE(vm.verify(prog, 4).isOk());
}

TEST(BpfVerifierTest, RejectsHugeShift)
{
    BpfVm vm;
    std::vector<BpfInsn> prog = {
        {BpfOp::LshImm, 0, 0, 0, 64},
        {BpfOp::Exit, 0, 0, 0, 0},
    };
    EXPECT_FALSE(vm.verify(prog, 4).isOk());
}

TEST(BpfRunTest, Arithmetic)
{
    BpfVm vm;
    BpfProgramBuilder b;
    // r0 = ((5 + 10) * 4 - 8) / 2 % 7 = 52/2=26 % 7 = 5
    b.movImm(0, 5).addImm(0, 10);
    b.emit({BpfOp::MulImm, 0, 0, 0, 4});
    b.emit({BpfOp::SubImm, 0, 0, 0, 8});
    b.emit({BpfOp::DivImm, 0, 0, 0, 2});
    b.emit({BpfOp::ModImm, 0, 0, 0, 7});
    b.exit();
    auto prog = b.take();
    ASSERT_TRUE(vm.verify(prog, 0).isOk());
    EXPECT_EQ(vm.run(prog, {}), 5u);
}

TEST(BpfRunTest, DivisionByZeroYieldsZero)
{
    BpfVm vm;
    BpfProgramBuilder b;
    b.movImm(0, 100);
    b.emit({BpfOp::DivImm, 0, 0, 0, 0});
    b.exit();
    auto prog = b.take();
    ASSERT_TRUE(vm.verify(prog, 0).isOk());
    EXPECT_EQ(vm.run(prog, {}), 0u); // eBPF semantics
}

TEST(BpfRunTest, BranchesAndContext)
{
    BpfVm vm;
    BpfProgramBuilder b;
    // r0 = ctx[0] >= 10 ? 1 : 0
    b.ldCtx(1, 0).movImm(0, 0).jltImm(1, 10, 1).movImm(0, 1).exit();
    auto prog = b.take();
    ASSERT_TRUE(vm.verify(prog, 1).isOk());
    EXPECT_EQ(vm.run(prog, {9}), 0u);
    EXPECT_EQ(vm.run(prog, {10}), 1u);
    EXPECT_EQ(vm.run(prog, {11}), 1u);
}

TEST(BpfRunTest, HelperCalls)
{
    BpfVm vm;
    vm.registerHelper(1, [](const std::array<std::uint64_t, 5> &args) {
        return args[0] * 2 + args[1];
    });
    BpfProgramBuilder b;
    b.movImm(1, 20).movImm(2, 2).call(1).exit();
    auto prog = b.take();
    ASSERT_TRUE(vm.verify(prog, 0).isOk());
    EXPECT_EQ(vm.run(prog, {}), 42u);
}

// Regression (ISSUE 7 wrap audit): BpfPolicy shares the rate-limited
// probe pattern and wrapped the same unsigned subtraction.
TEST(BpfPolicyTest, NonMonotoneNowDoesNotWrapProbeInterval)
{
    BpfVm vm;
    int probes = 0;
    BpfPolicy::Config cfg;
    cfg.probe_interval = 5_ms;
    cfg.avg_window = 2;
    BpfPolicy p(vm, buildFig3Program(40.0, 8),
                [&](Nanos) {
                    ++probes;
                    return 0.0;
                },
                cfg);

    PolicyInput in;
    in.batch_size = 16;
    in.now = 10_ms;
    p.decide(in);
    EXPECT_EQ(probes, 1);
    in.now = 8_ms; // in the past: no wrap, no probe
    p.decide(in);
    EXPECT_EQ(probes, 1);
    in.now = 15_ms;
    p.decide(in);
    EXPECT_EQ(probes, 2);
}

// The bytecode Fig. 3 policy must bound the staleness of its smoothed
// window exactly like the native one: after a long idle gap it acts on
// a fresh probe, not on readings taken before the gap.
TEST(BpfPolicyTest, DropsStaleWindowAfterIdleGap)
{
    BpfVm vm;
    double util = 90.0;
    BpfPolicy::Config cfg;
    cfg.probe_interval = 5_ms;
    cfg.avg_window = 4;
    BpfPolicy p(vm, buildFig3Program(40.0, 4),
                [&](Nanos) { return util; }, cfg);

    PolicyInput in;
    in.batch_size = 16;
    // Busy phase: the window fills with high readings.
    for (Nanos t = 0; t <= 15_ms; t += 5_ms) {
        in.now = t;
        EXPECT_EQ(p.decide(in), Engine::Cpu);
    }

    // Long idle gap (more than the default 8 probe intervals); the GPU
    // drains to 0% during it. Pre-fix the window averaged
    // (90*3 + 0)/4 = 67.5 >= 40 -> Cpu even though the GPU is idle.
    util = 0.0;
    in.now = 500_ms;
    EXPECT_EQ(p.decide(in), Engine::Gpu);
}

class Fig3EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(Fig3EquivalenceTest, BytecodeMatchesNativePolicy)
{
    // The bytecode Fig. 3 policy must agree with the native
    // FleetPlacementPolicy decision for the same inputs.
    auto [batch, util_pct] = GetParam();

    BpfVm vm;
    auto prog = buildFig3Program(40.0, 8);
    ASSERT_TRUE(vm.verify(prog, kCtxSlotCount).isOk());

    std::vector<std::uint64_t> ctx(kCtxSlotCount, 0);
    ctx[kCtxBatchSize] = static_cast<std::uint64_t>(batch);
    ctx[kCtxGpuUtilX100] = static_cast<std::uint64_t>(util_pct * 100);
    bool bytecode_gpu = vm.run(prog, ctx) != 0;

    bool native_gpu = util_pct < 40 && batch >= 8;
    EXPECT_EQ(bytecode_gpu, native_gpu)
        << "batch=" << batch << " util=" << util_pct;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fig3EquivalenceTest,
    ::testing::Combine(::testing::Values(1, 4, 7, 8, 9, 64, 1024),
                       ::testing::Values(0, 10, 39, 40, 41, 99)));

TEST(BpfPolicyTest, DecidesThroughVm)
{
    BpfVm vm;
    double util = 0.0;
    BpfPolicy::Config cfg;
    cfg.avg_window = 1;
    BpfPolicy policy(vm, buildFig3Program(40.0, 8),
                     [&](Nanos) { return util; }, cfg);

    PolicyInput in;
    in.batch_size = 16;
    in.now = 0;
    EXPECT_EQ(policy.decide(in), Engine::Gpu);

    util = 80.0;
    in.now = 10_ms;
    EXPECT_EQ(policy.decide(in), Engine::Cpu);

    in.batch_size = 2;
    util = 0.0;
    in.now = 20_ms;
    EXPECT_EQ(policy.decide(in), Engine::Cpu);
}

} // namespace
} // namespace lake::policy
