// Reproduces Fig. 13: kernel and user-space throughput, normalized
// against peak, under the adaptive contention-averse policy of Fig. 3.
// The kernel I/O latency classifier runs alone on the GPU; a user
// hashing process arrives, takes the GPU, and LAKE's policy moves the
// classifier to the CPU; when the user process exits the policy
// reclaims the GPU.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "base/stats.h"
#include "core/lake.h"
#include "gpu/kernels.h"
#include "policy/policy.h"
#include "sim/simulator.h"

using namespace lake;

int
main()
{
    bench::banner("Fig. 13",
                  "normalized throughput under the adaptive "
                  "contention-averse policy");

    constexpr Nanos kT1 = 5_s;   // user process launches (CPU phase)
    constexpr Nanos kT2 = 7_s;   // user hashing hits the GPU
    constexpr Nanos kT3 = 20_s;  // user process exits
    constexpr Nanos kEnd = 28_s;
    constexpr Nanos kBucket = 500_ms;
    constexpr std::uint64_t kHashBatch = 2048;

    core::Lake lake;
    gpu::Device &dev = lake.device();
    gpu::registerBuiltinKernels();
    sim::Simulator simr;

    RateMeter user_tput(kBucket);
    RateMeter kernel_tput(kBucket);
    std::vector<std::pair<double, const char *>> engine_log;

    // The Fig. 3 policy, probing the device's NVML-style utilization.
    policy::ContentionConfig pcfg;
    pcfg.probe_interval = 5_ms;
    pcfg.avg_window = 4;
    pcfg.exec_threshold = 40.0;
    pcfg.batch_threshold = 8;
    policy::FleetPlacementPolicy policy(
        {[&](Nanos now) { return dev.utilization(now, 20_ms); }},
        {.contention = pcfg});

    // Kernel classifier: a 256-I/O batch every 2 ms, engine by policy.
    constexpr std::size_t kBatch = 256;
    constexpr Nanos kGpuBatchCost = 10_us + 9_us;   // launch + compute
    constexpr Nanos kCpuBatchCost = 256 * 15_us;    // 15 us/inference
    policy::Engine last_engine = policy::Engine::Gpu;

    std::function<void()> classifier = [&] {
        if (simr.now() >= kEnd)
            return;
        policy::PolicyInput in;
        in.batch_size = kBatch;
        in.now = simr.now();
        policy::Engine e = policy.decide(in);
        if (e != last_engine) {
            engine_log.emplace_back(toSec(simr.now()),
                                    policy::engineName(e));
            last_engine = e;
        }
        if (e == policy::Engine::Gpu) {
            gpu::EngineSpan span =
                dev.reserveCompute(simr.now(), kGpuBatchCost);
            simr.schedule(span.end, [&] {
                kernel_tput.record(simr.now(),
                                   static_cast<double>(kBatch));
            });
            simr.scheduleIn(2_ms, classifier);
        } else {
            // CPU fallback: slower, so batches take longer than the
            // 2 ms cadence and throughput sags — but the GPU is freed.
            simr.scheduleIn(std::max<Nanos>(kCpuBatchCost, 2_ms), [&] {
                kernel_tput.record(simr.now(),
                                   static_cast<double>(kBatch));
                classifier();
            });
        }
    };
    simr.schedule(0, classifier);

    // User process: hashes pages on the GPU between T2 and T3.
    gpu::LaunchConfig hash_cfg;
    hash_cfg.kernel = "page_hash";
    hash_cfg.args = {0, 0, kHashBatch};
    Nanos hash_cost = dev.spec().launch_overhead +
                      gpu::KernelRegistry::global().cost(dev, hash_cfg);
    std::function<void()> user_loop = [&] {
        if (simr.now() >= kT3)
            return;
        gpu::EngineSpan span = dev.reserveCompute(simr.now(), hash_cost);
        simr.schedule(span.end, [&] {
            user_tput.record(simr.now(), static_cast<double>(kHashBatch));
            user_loop();
        });
    };
    simr.schedule(kT2, user_loop);

    simr.runUntil(kEnd);

    // Normalize each series against its own peak bucket.
    auto user = user_tput.series();
    auto kernel = kernel_tput.series();
    double user_peak = 1.0, kernel_peak = 1.0;
    for (auto &p : user)
        user_peak = std::max(user_peak, p.rate);
    for (auto &p : kernel)
        kernel_peak = std::max(kernel_peak, p.rate);

    std::printf("T1 = %.0f s user process launches, T2 = %.0f s it "
                "starts hashing on the GPU, T3 = %.0f s it exits\n\n",
                toSec(kT1), toSec(kT2), toSec(kT3));
    std::printf("%-9s %14s %18s\n", "time (s)", "hashing (u)",
                "I/O predictor (k)");
    std::size_t buckets =
        static_cast<std::size_t>(kEnd / kBucket);
    for (std::size_t i = 0; i < buckets; ++i) {
        double u = i < user.size() ? user[i].rate / user_peak : 0.0;
        double k = i < kernel.size() ? kernel[i].rate / kernel_peak : 0.0;
        std::printf("%-9.1f %14.2f %18.2f\n", toSec(i * kBucket), u, k);
    }

    std::printf("\npolicy engine switches:\n");
    for (auto &[t, name] : engine_log)
        std::printf("  t=%.2fs -> %s\n", t, name);

    bench::expectation(
        "classifier runs at full throughput on the idle GPU; when the "
        "user app claims the GPU the policy detects pressure and falls "
        "back to the CPU (kernel throughput sags, user throughput "
        "stays near peak); after T3 the policy reclaims the GPU");
    return 0;
}
