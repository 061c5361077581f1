// Tests for the storage substrate: NVMe model, trace generation
// (Table 4), LinnOS features/training, and the end-to-end engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "storage/e2e.h"
#include "storage/linnos.h"
#include "storage/nvme.h"
#include "storage/trace.h"

namespace lake::storage {

// Prints a Table 4 row by its name, so the parameterized test names are
// stable (the default byte dump includes the std::string's heap pointer).
// Found by argument-dependent lookup, hence outside the anonymous namespace.
void PrintTo(const TraceSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace {

TEST(NvmeTest, CompletionsDecrementPending)
{
    sim::Simulator simr;
    NvmeDevice dev(simr, NvmeSpec::samsung980Pro(), 1, "d0");
    int done = 0;
    simr.schedule(0, [&] {
        dev.submit(Io{true, 0, 4096}, [&](Nanos) { ++done; });
        dev.submit(Io{false, 4096, 4096}, [&](Nanos) { ++done; });
        EXPECT_EQ(dev.pending(), 2u);
    });
    simr.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(dev.pending(), 0u);
    EXPECT_EQ(dev.completed(), 2u);
}

TEST(NvmeTest, LatencyGrowsWithQueueDepth)
{
    NvmeSpec spec = NvmeSpec::samsung980Pro();
    spec.cache_hit_rate = 0.0; // isolate the queueing effect
    spec.tail_prob = 0.0;

    // Idle device: arrivals far apart, queue stays shallow.
    sim::Simulator simr;
    NvmeDevice idle(simr, spec, 2, "idle");
    RunningStat idle_lat;
    for (int i = 0; i < 200; ++i) {
        simr.schedule(static_cast<Nanos>(i) * 1_ms, [&] {
            idle.submit(Io{true, 0, 4096},
                        [&](Nanos l) { idle_lat.add(toUs(l)); });
        });
    }
    simr.run();

    // Saturated device: everything lands at once.
    sim::Simulator simr2;
    NvmeDevice busy(simr2, spec, 2, "busy");
    RunningStat busy_lat;
    simr2.schedule(0, [&] {
        for (int i = 0; i < 200; ++i)
            busy.submit(Io{true, 0, 4096},
                        [&](Nanos l) { busy_lat.add(toUs(l)); });
    });
    simr2.run();
    EXPECT_GT(busy_lat.mean(), idle_lat.mean() * 2.0);
}

TEST(NvmeTest, CacheAbsorbsSmallReads)
{
    sim::Simulator simr;
    NvmeSpec spec = NvmeSpec::samsung980Pro();
    spec.tail_prob = 0.0;
    NvmeDevice dev(simr, spec, 3, "d0");

    RunningStat small, large;
    simr.schedule(0, [&] {
        for (int i = 0; i < 500; ++i)
            dev.submit(Io{true, 0, 4096},
                       [&](Nanos l) { small.add(toUs(l)); });
    });
    simr.runUntil(10_s);
    simr.schedule(simr.now(), [&] {
        for (int i = 0; i < 500; ++i)
            dev.submit(Io{true, 0, 1 << 20},
                       [&](Nanos l) { large.add(toUs(l)); });
    });
    simr.run();
    // Small reads often hit DRAM; large reads never do.
    EXPECT_LT(small.mean(), large.mean() * 0.5);
}

TEST(NvmeTest, GcStormsAreWriteDrivenAndEpisodic)
{
    sim::Simulator simr;
    NvmeSpec spec = NvmeSpec::samsung980Pro();
    spec.cache_hit_rate = 0.0;
    spec.tail_prob = 0.0;
    spec.write_interference = 0.0;
    spec.gc_trigger_bytes = 1 << 20; // one expected storm per MiB
    NvmeDevice dev(simr, spec, 5, "d0");

    // No writes -> no storms -> reads stay near the flash baseline.
    RunningStat quiet;
    for (int i = 0; i < 100; ++i) {
        simr.schedule(static_cast<Nanos>(i) * 1_ms, [&] {
            dev.submit(Io{true, 0, 4096},
                       [&](Nanos l) { quiet.add(toUs(l)); });
        });
    }
    simr.run();
    EXPECT_LT(quiet.max(), toUs(spec.read_base) * 1.5);
    EXPECT_FALSE(dev.inGcStorm());

    // A write burst triggers a storm; reads during it pay the penalty.
    sim::Simulator simr2;
    NvmeDevice dev2(simr2, spec, 5, "d1");
    bool saw_storm_read = false;
    simr2.schedule(0, [&] {
        for (int i = 0; i < 64; ++i)
            dev2.submit(Io{false, 0, 1 << 20}, nullptr);
        EXPECT_TRUE(dev2.inGcStorm()); // 64 MiB vs 1 MiB trigger
        dev2.submit(Io{true, 0, 4096}, [&](Nanos l) {
            saw_storm_read = true;
            EXPECT_GT(l, spec.gc_read_penalty);
        });
    });
    simr2.run();
    EXPECT_TRUE(saw_storm_read);
}

TEST(NvmeTest, ReadsWaitBehindInflightWrites)
{
    sim::Simulator simr;
    NvmeSpec spec = NvmeSpec::samsung980Pro();
    spec.cache_hit_rate = 0.0;
    spec.tail_prob = 0.0;
    spec.gc_trigger_bytes = ~0ull >> 1; // storms off
    NvmeDevice dev(simr, spec, 6, "d0");

    Nanos clean_read = 0, interfered_read = 0;
    simr.schedule(0, [&] {
        dev.submit(Io{true, 0, 4096},
                   [&](Nanos l) { clean_read = l; });
    });
    simr.schedule(10_ms, [&] {
        // A large write in flight: the next read waits behind it.
        dev.submit(Io{false, 0, 4 << 20}, nullptr);
        dev.submit(Io{true, 0, 4096},
                   [&](Nanos l) { interfered_read = l; });
    });
    simr.run();
    ASSERT_GT(clean_read, 0u);
    ASSERT_GT(interfered_read, 0u);
    // 4 MiB at write_gbps with the interference share ~ hundreds of us.
    EXPECT_GT(interfered_read, clean_read + 200_us);
}

TEST(NvmeTest, ModernDeviceFasterThanLinnosEra)
{
    NvmeSpec modern = NvmeSpec::samsung980Pro();
    NvmeSpec old = NvmeSpec::enterprise2019();
    EXPECT_LT(modern.read_base, old.read_base);
    EXPECT_GT(modern.cache_hit_rate, old.cache_hit_rate);
}

class TraceSpecTest : public ::testing::TestWithParam<TraceSpec>
{
};

TEST_P(TraceSpecTest, GeneratedTraceMatchesSpec)
{
    TraceSpec spec = GetParam();
    Rng rng(17);
    auto trace = generateTrace(spec, 2_s, rng);
    ASSERT_GT(trace.size(), 100u);
    TraceStats stats = measureTrace(trace);

    EXPECT_NEAR(stats.iops, spec.avg_iops, spec.avg_iops * 0.10);
    EXPECT_NEAR(stats.read_kb_mean, spec.read_kb_mean,
                spec.read_kb_mean * 0.15);
    EXPECT_NEAR(stats.write_kb_mean, spec.write_kb_mean,
                spec.write_kb_mean * 0.15);
    EXPECT_LE(stats.max_arrival, spec.max_arrival + 1);

    // Events are time-ordered, sizes block-aligned.
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].at, trace[i - 1].at);
    for (const auto &ev : trace)
        EXPECT_EQ(ev.io.bytes % 4096, 0u);
}

INSTANTIATE_TEST_SUITE_P(Table4, TraceSpecTest,
                         ::testing::Values(TraceSpec::azure(),
                                           TraceSpec::bingI(),
                                           TraceSpec::cosmos()));

TEST(TraceTest, ReratingScalesIops)
{
    Rng rng(19);
    TraceSpec base = TraceSpec::bingI();
    TraceSpec hot = base.rerated(3.0);
    EXPECT_DOUBLE_EQ(hot.avg_iops, base.avg_iops * 3.0);

    auto t1 = generateTrace(base, 1_s, rng);
    auto t2 = generateTrace(hot, 1_s, rng);
    EXPECT_NEAR(static_cast<double>(t2.size()),
                3.0 * static_cast<double>(t1.size()),
                0.3 * static_cast<double>(t2.size()));
}

TEST(LinnosFeatureTest, DigitEncoding)
{
    float out[kLinnosFeatures];
    std::array<std::uint32_t, kLinnosHistory> lats = {1234567, 89, 0, 5};
    encodeLinnosFeatures(42, lats, out);

    // Pending 42 -> digits 0, 4, 2 scaled by 0.1.
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 0.4f);
    EXPECT_FLOAT_EQ(out[2], 0.2f);
    // First latency 1234567 -> digits 1,2,3,4,5,6,7.
    for (int d = 0; d < 7; ++d)
        EXPECT_FLOAT_EQ(out[3 + d], 0.1f * (d + 1));
    // 89 -> 0,0,0,0,0,8,9.
    EXPECT_FLOAT_EQ(out[10 + 5], 0.8f);
    EXPECT_FLOAT_EQ(out[10 + 6], 0.9f);
}

TEST(LinnosFeatureTest, ClampsOverflow)
{
    float out[kLinnosFeatures];
    std::array<std::uint32_t, kLinnosHistory> lats = {4000000000u, 0, 0,
                                                      0};
    encodeLinnosFeatures(5000, lats, out);
    EXPECT_FLOAT_EQ(out[0], 0.9f); // 999
    EXPECT_FLOAT_EQ(out[1], 0.9f);
    EXPECT_FLOAT_EQ(out[2], 0.9f);
    EXPECT_FLOAT_EQ(out[3], 0.9f); // 9999999
}

TEST(LinnosTrainingTest, DatasetLabelsAreMechanisticTail)
{
    LinnosDataset data = collectLinnosData(
        TraceSpec::azure().rerated(1.5), NvmeSpec::samsung980Pro(),
        500_ms, 0.85, 7);
    ASSERT_GT(data.samples.size(), 1000u);
    // The threshold never sits inside the fast-mode noise band: it is
    // floored well above an ordinary flash read...
    EXPECT_GE(data.threshold_us,
              1.8 * toUs(NvmeSpec::samsung980Pro().read_base) - 1e-6);
    // ...so at most the quantile's share of reads is labelled slow.
    EXPECT_LE(data.slow_fraction, 0.15 + 0.03);
}

TEST(LinnosTrainingTest, ModelBeatsChanceUnderQueuePressure)
{
    // Queue-dependent latency is the learnable signal; the generated
    // workload must stress the device (the paper's re-rating) or
    // modern NVMe caches reduce latency to feature-independent noise.
    Rng rng(23);
    TraceSpec spec = TraceSpec::azure().rerated(3.0);
    LinnosDataset data = collectLinnosData(
        spec, NvmeSpec::samsung980Pro(), 500_ms, 0.75, 7);
    ml::Mlp net = trainLinnosModel(data, 0, 6, 0.05f, rng);

    // Evaluate *balanced* accuracy on held-out data from a new seed:
    // an always-fast classifier scores exactly 0.5 here.
    LinnosDataset test = collectLinnosData(
        spec, NvmeSpec::samsung980Pro(), 300_ms, 0.75, 99);
    ml::Matrix xs(1, kLinnosFeatures);
    std::size_t hit_slow = 0, n_slow = 0, hit_fast = 0, n_fast = 0;
    for (const LinnosSample &s : test.samples) {
        std::copy(s.x.begin(), s.x.end(), xs.row(0));
        int pred = net.classify(xs)[0];
        if (s.slow) {
            ++n_slow;
            hit_slow += pred == 1;
        } else {
            ++n_fast;
            hit_fast += pred == 0;
        }
    }
    ASSERT_GT(n_slow, 50u);
    ASSERT_GT(n_fast, 50u);
    double balanced =
        0.5 * (static_cast<double>(hit_slow) / n_slow +
               static_cast<double>(hit_fast) / n_fast);
    EXPECT_GT(balanced, 0.80);
}

TEST(E2eTest, BaselineRunsAndMeasures)
{
    E2eConfig cfg;
    cfg.mode = E2eMode::Baseline;
    cfg.duration = 300_ms;
    std::vector<TraceSpec> traces(3, TraceSpec::bingI());
    E2eResult r = runE2e(traces, cfg);
    EXPECT_GT(r.reads, 500u);
    EXPECT_GT(r.writes, 100u);
    EXPECT_GT(r.avg_read_lat_us, 0.0);
    EXPECT_EQ(r.rerouted, 0u);
    EXPECT_EQ(r.inference_batches, 0u);
}

TEST(E2eTest, LakeModeReroutesUnderPressure)
{
    Rng rng(31);
    LinnosDataset data =
        collectLinnosData(TraceSpec::azure().rerated(3.0),
                          NvmeSpec::samsung980Pro(), 400_ms, 0.80, 7);
    ml::Mlp net = trainLinnosModel(data, 0, 3, 0.05f, rng);

    E2eConfig cfg;
    cfg.mode = E2eMode::LakeNn;
    cfg.model = &net;
    cfg.duration = 300_ms;
    cfg.threshold_us = data.threshold_us;
    std::vector<TraceSpec> traces = {TraceSpec::azure().rerated(3.0),
                                     TraceSpec::bingI().rerated(3.0),
                                     TraceSpec::cosmos()};
    E2eResult r = runE2e(traces, cfg);
    EXPECT_GT(r.reads, 1000u);
    EXPECT_GT(r.inference_batches, 10u);
    EXPECT_GT(r.avg_batch, 1.0);
    // The model predicts *some* slow I/Os in a stressed mixed workload.
    EXPECT_GT(r.rerouted, 0u);
}

TEST(E2eTest, AdaptiveModeGatesUselessInference)
{
    // On a calm uniform workload the model predicts almost nothing
    // slow; the §7.1 modulation gate must switch ML off and recover
    // (most of) the baseline's latency.
    Rng rng(41);
    LinnosDataset data =
        collectLinnosData(TraceSpec::azure().rerated(3.0),
                          NvmeSpec::samsung980Pro(), 400_ms, 0.85, 7);
    ml::Mlp net = trainLinnosModel(data, 0, 4, 0.05f, rng);

    // A device with no slow episodes at all: GC storms effectively
    // disabled, no write interference — there is nothing for the
    // model to predict, so every inference is pure overhead.
    std::vector<TraceSpec> calm(3, TraceSpec::bingI());
    NvmeSpec placid = NvmeSpec::samsung980Pro();
    placid.gc_trigger_bytes = ~0ull >> 1;
    placid.write_interference = 0.0;
    placid.tail_prob = 0.0;

    E2eConfig cfg;
    cfg.duration = 400_ms;
    cfg.model = &net;
    cfg.device = placid;
    cfg.gate.window = 128;
    cfg.gate.min_positive_rate = 0.02;

    cfg.mode = E2eMode::Baseline;
    E2eResult base = runE2e(calm, cfg);
    cfg.mode = E2eMode::LakeNn;
    E2eResult plain = runE2e(calm, cfg);
    cfg.mode = E2eMode::LakeAdaptive;
    E2eResult adaptive = runE2e(calm, cfg);

    EXPECT_GT(adaptive.gate_closures, 0u);
    EXPECT_GT(adaptive.gated_batches, 0u);
    // Gating recovers (most of) the baseline; always-on ML does not.
    EXPECT_LT(adaptive.avg_read_lat_us - base.avg_read_lat_us,
              plain.avg_read_lat_us - base.avg_read_lat_us);
    EXPECT_LT(adaptive.avg_read_lat_us, base.avg_read_lat_us * 1.10);
}

TEST(E2eTest, CpuModeChargesInferenceOnIssuePath)
{
    Rng rng(37);
    LinnosDataset data =
        collectLinnosData(TraceSpec::bingI(), NvmeSpec::samsung980Pro(),
                          300_ms, 0.85, 7);
    ml::Mlp net = trainLinnosModel(data, 0, 2, 0.05f, rng);

    E2eConfig base_cfg;
    base_cfg.mode = E2eMode::Baseline;
    base_cfg.duration = 200_ms;
    E2eConfig cpu_cfg = base_cfg;
    cpu_cfg.mode = E2eMode::CpuNn;
    cpu_cfg.model = &net;

    // Low-pressure workload: §7.1 finds the NN *degrades* latency when
    // devices are not stressed (inference cost, no reroute benefit).
    std::vector<TraceSpec> traces(3, TraceSpec::bingI());
    E2eResult base = runE2e(traces, base_cfg);
    E2eResult cpu = runE2e(traces, cpu_cfg);
    EXPECT_GT(cpu.avg_read_lat_us, base.avg_read_lat_us * 0.9);
}

/**
 * A LinnOS-shaped network whose weights are all zero and whose output
 * bias is (fast, slow) = @p fast_bias, @p slow_bias: every read gets
 * the same class on any float codegen, so the batch-former tests below
 * pin counts, not model quality.
 */
ml::Mlp
constantLinnosModel(float fast_bias, float slow_bias)
{
    Rng rng(1);
    ml::Mlp net(ml::MlpConfig::linnos(), rng);
    std::vector<std::uint8_t> blob = net.serialize();
    std::size_t params = net.paramCount() * sizeof(float);
    std::fill(blob.end() - static_cast<std::ptrdiff_t>(params), blob.end(),
              0);
    const float out_bias[2] = {fast_bias, slow_bias};
    std::memcpy(blob.data() + blob.size() - sizeof out_bias, out_bias,
                sizeof out_bias);
    return ml::Mlp::deserialize(blob).takeValue();
}

std::vector<TraceSpec>
mixedTraces()
{
    return {TraceSpec::azure().rerated(3.0), TraceSpec::bingI().rerated(3.0),
            TraceSpec::cosmos()};
}

TEST(E2eTest, EveryModeSubmitsEachTraceReadExactlyOnce)
{
    ml::Mlp always_slow = constantLinnosModel(0.0f, 1.0f);
    ml::Mlp never_slow = constantLinnosModel(1.0f, 0.0f);
    std::vector<TraceSpec> traces = mixedTraces();

    E2eConfig cfg;
    cfg.duration = 200_ms;
    cfg.mode = E2eMode::Baseline;
    E2eResult base = runE2e(traces, cfg);
    ASSERT_GT(base.reads, 1000u);

    // Every scored read is predicted slow and rerouted once.
    cfg.mode = E2eMode::LakeNn;
    cfg.model = &always_slow;
    E2eResult lake = runE2e(traces, cfg);
    EXPECT_EQ(lake.reads, base.reads);
    EXPECT_EQ(lake.writes, base.writes);
    EXPECT_EQ(lake.rerouted, lake.reads);

    // Nothing is ever slow, so a small gate window closes: reads then
    // skip ML or drain home unscored. Frequent probes and a long
    // quantum leave reads queued on the other devices when a probe
    // fails, so the closed gate drains them.
    cfg.mode = E2eMode::LakeAdaptive;
    cfg.model = &never_slow;
    cfg.gate.window = 64;
    cfg.gate.probe_interval = 1_ms;
    cfg.quantum = 100_us;
    E2eResult adaptive = runE2e(traces, cfg);
    EXPECT_EQ(adaptive.reads, base.reads);
    EXPECT_EQ(adaptive.writes, base.writes);
    EXPECT_EQ(adaptive.rerouted, 0u);
    EXPECT_GT(adaptive.gate_closures, 0u);
    EXPECT_GT(adaptive.gated_batches, 0u);

    // A faulty channel moves batches onto the CPU, never drops a read.
    cfg.mode = E2eMode::LakeNn;
    cfg.model = &always_slow;
    cfg.gpu_batch_threshold = 2;
    cfg.inject_faults = true;
    cfg.faults.seed = 0x1a4e;
    cfg.faults.drop = 0.25;
    E2eResult faulty = runE2e(traces, cfg);
    EXPECT_EQ(faulty.reads, base.reads);
    EXPECT_EQ(faulty.writes, base.writes);
    EXPECT_EQ(faulty.rerouted, faulty.reads);
    EXPECT_GT(faulty.cpu_fallbacks, 0u);
}

TEST(E2eTest, BatchFormerFlushesOnDepthAndQuantum)
{
    ml::Mlp never_slow = constantLinnosModel(1.0f, 0.0f);
    std::vector<TraceSpec> traces = mixedTraces();
    E2eConfig cfg;
    cfg.mode = E2eMode::LakeNn;
    cfg.model = &never_slow;
    cfg.duration = 100_ms;

    // Depth 1: every read is its own batch.
    cfg.batch_max = 1;
    E2eResult single = runE2e(traces, cfg);
    ASSERT_GT(single.reads, 500u);
    EXPECT_EQ(single.inference_batches, single.reads);
    EXPECT_EQ(single.avg_batch, 1.0);

    // A quantum past the end of the trace: only full batches flush
    // while reads arrive, and each device's timer then flushes its one
    // partial batch.
    cfg.batch_max = 16;
    cfg.quantum = 2 * cfg.duration;
    Rng rng(cfg.seed);
    std::uint64_t expect = 0;
    for (const TraceSpec &spec : traces) {
        std::uint64_t n = 0;
        for (const TraceEvent &ev : generateTrace(spec, cfg.duration, rng))
            n += ev.io.is_read ? 1 : 0;
        expect += (n + cfg.batch_max - 1) / cfg.batch_max;
    }
    E2eResult late = runE2e(traces, cfg);
    EXPECT_EQ(late.inference_batches, expect);
}

} // namespace
} // namespace lake::storage
