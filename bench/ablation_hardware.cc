// Ablations for the design choices DESIGN.md calls out, centred on the
// paper's hardware-evolution finding (§7.1): ML profitability is
// hardware-dependent. Three sweeps:
//
//  (a) GPU generation: the LinnOS crossover point on the testbed A100
//      versus a modest PCIe-3.0 part (higher overheads shift the
//      crossover right).
//  (b) Storage generation: the end-to-end benefit of rerouting on
//      LinnOS-era enterprise SSDs versus modern 980 Pros (the original
//      LinnOS result re-emerges on old devices).
//  (c) Transport choice: the cost of one remoted inference over each
//      §6 channel (why LAKE picked Netlink).

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "core/lake.h"
#include "ml/backends.h"
#include "policy/policy.h"
#include "storage/e2e.h"
#include "storage/linnos.h"

using namespace lake;

int
main()
{
    bench::banner("Ablations",
                  "hardware-dependence of ML profitability (§7.1) and "
                  "transport choice (§6)");

    Rng rng(3);

    // ---- (a) GPU generation ------------------------------------------
    std::printf("(a) LinnOS-NN crossover batch by accelerator:\n");
    {
        // The LinnOS NN's crossover on one Lake's device, over every
        // batch from 1 to 256 with zero-filled inputs.
        std::vector<std::size_t> grid(256);
        std::iota(grid.begin(), grid.end(), 1);
        auto linnosCrossover = [&](core::Lake &lake) {
            ml::Mlp model(ml::MlpConfig::linnos(), rng);
            ml::CpuMlp cpu(model, lake.kernelCpu());
            ml::LakeMlp gpu(model, lake.lib(), false, 1024);
            auto time = [&](auto &engine, const ml::Matrix &x) {
                Nanos t0 = lake.clock().now();
                engine.classify(x);
                return static_cast<double>(lake.clock().now() - t0);
            };
            // A braced initializer runs its elements in order.
            return policy::crossover(grid, [&](std::size_t b) {
                ml::Matrix x(b, 31);
                return policy::EngineCosts{time(cpu, x), time(gpu, x)};
            });
        };

        core::Lake a100;
        std::printf("    %-36s %zu\n", a100.device().spec().name.c_str(),
                    linnosCrossover(a100));

        core::LakeConfig cfg;
        cfg.fleet.spec = gpu::DeviceSpec::modest();
        core::Lake modest(cfg);
        std::printf("    %-36s %zu\n",
                    modest.device().spec().name.c_str(),
                    linnosCrossover(modest));
    }

    // ---- (b) storage generation ----------------------------------------
    std::printf("\n(b) end-to-end rerouting benefit by SSD generation "
                "(Azure* on every device, avg read latency, us):\n");
    {
        // Uniform workload (the same trace on every device): rerouting
        // can only win by dodging *transient* per-device slowness.
        std::vector<storage::TraceSpec> uniform(
            3, storage::TraceSpec::azure());

        std::printf("    %-28s %10s %10s %9s\n", "device", "baseline",
                    "NN cpu", "change");
        for (bool modern : {false, true}) {
            storage::NvmeSpec dev =
                modern ? storage::NvmeSpec::samsung980Pro()
                       : storage::NvmeSpec::enterprise2019();

            storage::LinnosDataset data = storage::collectLinnosData(
                storage::TraceSpec::azure().rerated(modern ? 3.0 : 1.0),
                dev, 600_ms, 0.85, 7);
            Rng trng(5);
            ml::Mlp model =
                storage::trainLinnosModel(data, 0, 5, 0.05f, trng);

            storage::E2eConfig cfg;
            cfg.duration = 300_ms;
            cfg.device = dev;
            cfg.mode = storage::E2eMode::Baseline;
            storage::E2eResult base = storage::runE2e(uniform, cfg);
            cfg.mode = storage::E2eMode::CpuNn;
            cfg.model = &model;
            storage::E2eResult nn = storage::runE2e(uniform, cfg);

            std::printf("    %-28s %10.1f %10.1f %8.1f%%\n",
                        dev.name.c_str(), base.avg_read_lat_us,
                        nn.avg_read_lat_us,
                        100.0 * (nn.avg_read_lat_us /
                                     base.avg_read_lat_us -
                                 1.0));
        }
    }

    // ---- (c') ML-use modulation (§7.1 future work) ---------------------
    std::printf("\n(c) MlGate: avg read latency (us) on a device with "
                "no learnable slowness:\n");
    {
        std::vector<storage::TraceSpec> calm(
            3, storage::TraceSpec::bingI());
        storage::NvmeSpec placid = storage::NvmeSpec::samsung980Pro();
        placid.gc_trigger_bytes = ~0ull >> 1; // storms off
        placid.write_interference = 0.0;
        placid.tail_prob = 0.0;

        storage::LinnosDataset data = storage::collectLinnosData(
            storage::TraceSpec::azure().rerated(3.0),
            storage::NvmeSpec::samsung980Pro(), 400_ms, 0.85, 7);
        Rng trng(9);
        ml::Mlp model =
            storage::trainLinnosModel(data, 0, 4, 0.05f, trng);

        storage::E2eConfig cfg;
        cfg.duration = 300_ms;
        cfg.device = placid;
        cfg.model = &model;
        cfg.gate.window = 128;
        cfg.gate.min_positive_rate = 0.02;

        for (storage::E2eMode mode :
             {storage::E2eMode::Baseline, storage::E2eMode::LakeNn,
              storage::E2eMode::LakeAdaptive}) {
            cfg.mode = mode;
            storage::E2eResult r = storage::runE2e(calm, cfg);
            std::printf("    %-14s %8.1f", storage::e2eModeName(mode),
                        r.avg_read_lat_us);
            if (mode == storage::E2eMode::LakeAdaptive) {
                std::printf("   (gate closed %zux, %llu reads skipped "
                            "inference)",
                            static_cast<std::size_t>(r.gate_closures),
                            static_cast<unsigned long long>(
                                r.gated_batches));
            }
            std::printf("\n");
        }
    }

    // ---- (d) transport choice ------------------------------------------
    std::printf("\n(d) one remoted batch-32 inference by command "
                "transport (us):\n");
    for (channel::Kind kind :
         {channel::Kind::Signal, channel::Kind::DevRw,
          channel::Kind::Netlink, channel::Kind::Mmap}) {
        core::LakeConfig cfg;
        cfg.channel = kind;
        core::Lake lake(cfg);
        ml::Mlp model(ml::MlpConfig::linnos(), rng);
        ml::LakeMlp gpu(model, lake.lib(), false, 32);
        ml::Matrix x(32, 31);

        Nanos t0 = lake.clock().now();
        gpu.classify(x);
        std::printf("    %-12s %8.1f%s\n", channel::kindName(kind),
                    toUs(lake.clock().now() - t0),
                    channel::defaultModel(kind).spins
                        ? "   (burns a CPU spinning)"
                        : "");
    }

    bench::expectation(
        "(a) older GPUs shift the crossover right (acceleration pays "
        "off later); (b) on LinnOS-era SSDs rerouting slashes average "
        "latency — the original LinnOS result — while modern devices "
        "absorb the load and shrink the benefit; (c) the modulation "
        "gate recovers the baseline when ML cannot help (the paper's "
        "§7.1 future work); (d) Netlink is the fastest transport that "
        "does not spin");
    return 0;
}
