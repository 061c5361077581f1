// Fleet scaling benchmark (DESIGN.md §13): scored-vector and command
// throughput of the sharded lakeD fleet as the device count grows.
//
// Every arm offers the same fixed multi-tenant load — ~10x the
// calibrated single-device GPU inference capacity, generated by the
// §11 open-loop TrafficGenerator — against 1, 2, 4 and 8 devices (one
// lakeD shard per device), plus a 4-device/2-shard arm that funnels
// two devices through one daemon so the CuSetDevice muxing path is
// exercised under load. Each fleet device hosts one LinnOS registry
// in its own subsystem (the ScoreServer coalesces flushes across the
// registries of one subsystem through the first registry's
// classifier, which is exactly wrong when classifiers target
// different devices), and its placement comes from the FleetRouter
// (per-device smoothed utilization + pending depth, sticky per
// registry). Generators run in interleaved time slices, so devices
// sharing a shard alternate within the run and the daemon muxes
// CuSetDevice mid-stream; the arm's wall time is the makespan (max
// over shard clocks), so throughput = work / makespan is
// conservative. The muxing arm stays shard-bound (~the 2-shard arm's
// throughput spread over all 4 devices): the serialized remoting
// path, not the device, is the unit of capacity.
//
// The smoke gates are behavioral: conservation per generator, every
// device actually scoring work, and near-linear scaling (4 devices
// >= 2.5x of 1 device in both scored vectors/sec and commands/sec;
// the committed full run shows >= 3x).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/time.h"
#include "bench_util.h"
#include "core/lake.h"
#include "gpu/fleet.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "policy/policy.h"
#include "registry/manager.h"
#include "remote/fleet.h"
#include "serve/serve.h"
#include "serve/traffic.h"
#include "storage/linnos.h"

using namespace lake;

namespace {

constexpr const char *kSys = "fleet_scaling";

/**
 * One subsystem per device: the ScoreServer dispatches a subsystem's
 * coalesced flush through its first name-ordered registry, so
 * per-device classifiers must not share a coalescing group.
 */
std::string
sysFor(std::size_t device)
{
    return std::string(kSys) + ".dev" + std::to_string(device);
}
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kTenants = 64;
/** Offered load as a multiple of one device's calibrated capacity. */
constexpr double kOverload = 10.0;
/**
 * The Fig. 3 contention threshold, retuned for a throughput arm: a
 * device is only "contended" near saturation (the default 40% would
 * park the whole overloaded fleet on the CPU).
 */
constexpr double kExecThreshold = 95.0;

/** Per-device tallies of one arm. */
struct DeviceTally
{
    std::uint64_t vectors = 0; //!< scored on this device
    std::uint64_t launches = 0;
    double utilization = 0.0; //!< busy share of the makespan, %
};

/** Result of one fleet arm. */
struct ArmResult
{
    std::size_t devices = 0;
    std::size_t shards = 0;
    Nanos makespan = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    std::uint64_t gpu_vectors = 0;
    std::uint64_t cpu_vectors = 0; //!< contended / degraded fallbacks
    std::uint64_t commands = 0;
    std::uint64_t migrations = 0;
    double vectors_per_sec = 0.0;
    double cmds_per_sec = 0.0;
    bool conserved = false;
    std::vector<DeviceTally> per_device;
};

/**
 * Calibrates one device's GPU inference capacity (vectors per virtual
 * second at the serving batch size, sync copies), so every arm's
 * offered load is a multiple of modeled capacity rather than a magic
 * number.
 */
double
calibrateGpuVps()
{
    core::Lake lake;
    Rng model_rng(42);
    ml::Mlp model(ml::MlpConfig::linnos(), model_rng);
    ml::LakeMlp mlp(model, lake.lib(), /*sync_copy=*/true, kMaxBatch);
    // The registry only featurizes: its store's LinnOS encoder turns
    // the committed requests into the batch's float rows.
    registry::Registry reg("calibrate", kSys, storage::linnosSchema(),
                           kMaxBatch);
    reg.soa().setFloatEncoder(storage::kLinnosFeatures,
                              storage::encodeLinnosRow);
    reg.beginFvCapture(0);
    Rng rng(7);
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
        registry::FeatureVector fv = storage::randomLinnosRequest(rng, 0);
        for (const auto &[key, entries] : fv.values)
            reg.captureFeature(key, entries[0]);
        reg.commitFvCapture(0);
    }
    registry::FvBatchView batch = reg.batchView();
    std::vector<ml::MatrixView> x = batch.matrixViews();
    Nanos t0 = lake.clock().now();
    mlp.classify(x);
    Nanos per_vector = (lake.clock().now() - t0) / kMaxBatch;
    return per_vector == 0 ? 0.0 : 1e9 / static_cast<double>(per_vector);
}

/** Runs one fleet arm. */
ArmResult
runArm(std::size_t devices, std::size_t nshards, double capacity_vps,
       std::uint64_t target_arrivals)
{
    ArmResult r;
    r.devices = devices;
    r.shards = nshards;

    gpu::FleetConfig fc;
    fc.enabled = true;
    fc.devices = devices;
    fc.shards = nshards;
    gpu::DeviceFleet fleet(fc);
    remote::ShardParams params;
    remote::ShardFleet shards(fleet, nshards, params);

    // Pending depth breaks ties between equally busy devices.
    policy::FleetPlacementPolicy::Config pcfg;
    pcfg.contention.exec_threshold = kExecThreshold;
    pcfg.depth_weight = 1.0;
    remote::FleetRouter router(shards, pcfg);

    // Registry "dev<i>" is pinned to fleet device i up front so each
    // shard's tenants start on the shard's own devices (the router
    // would otherwise seed in first-decide order).
    for (std::size_t d = 0; d < devices; ++d)
        router.lastPlacement("dev" + std::to_string(d));

    Rng model_rng(42);
    ml::Mlp model(ml::MlpConfig::linnos(), model_rng);

    ml::FleetMlp mlp(model, router, /*sync_copy=*/true, kMaxBatch);

    r.per_device.resize(devices);

    // One serving stack per shard, clocked by the shard's own clock.
    struct ShardRun
    {
        std::unique_ptr<ml::KernelCpu> cpu;
        std::unique_ptr<ml::CpuMlp> cpu_mlp;
        std::unique_ptr<registry::RegistryManager> mgr;
    };
    std::vector<ShardRun> runs(nshards);
    registry::Schema schema = storage::linnosSchema();
    for (std::size_t k = 0; k < nshards; ++k) {
        ShardRun &sr = runs[k];
        Clock &clock = shards.shard(k).clock();
        sr.cpu = std::make_unique<ml::KernelCpu>(
            clock, gpu::CpuSpec::xeonGold6226R());
        sr.cpu_mlp = std::make_unique<ml::CpuMlp>(model, *sr.cpu);
        sr.mgr = std::make_unique<registry::RegistryManager>(clock);

        for (std::size_t d = k; d < devices; d += nshards) {
            std::string key = "dev" + std::to_string(d);
            std::string sys = sysFor(d);
            if (!sr.mgr->createRegistry(key, sys, schema, 8).isOk()) {
                std::fprintf(stderr, "registry %s failed\n", key.c_str());
                return r;
            }
            registry::Registry *reg = sr.mgr->find(key, sys);

            // Requests arrive as caller-built vectors; the store's
            // LinnOS encoder turns them into the views' float rows.
            reg->soa().setFloatEncoder(storage::kLinnosFeatures,
                                       storage::encodeLinnosRow);
            registry::Classifier cpu_classify =
                [&r, &sr](const registry::FvBatchView &v) {
                    std::vector<int> c =
                        sr.cpu_mlp->classify(v.matrixViews());
                    r.cpu_vectors += c.size();
                    return std::vector<float>(c.begin(), c.end());
                };
            // A failed batch finishes on this registry's home-shard
            // CPU, not on the device's shard.
            registry::Classifier gpu_classify =
                [&r, &sr, &mlp, key](const registry::FvBatchView &v) {
                    ml::FleetMlp::Served s =
                        mlp.classify(key, v.matrixViews(), *sr.cpu_mlp);
                    if (s.device) {
                        r.per_device[*s.device].vectors += s.labels.size();
                        r.gpu_vectors += s.labels.size();
                    } else {
                        r.cpu_vectors += s.labels.size();
                    }
                    return std::vector<float>(s.labels.begin(),
                                              s.labels.end());
                };

            if (!reg->registerClassifier(registry::Arch::Cpu,
                                         cpu_classify)
                     .isOk() ||
                !reg->registerClassifier(registry::Arch::Gpu,
                                         gpu_classify)
                     .isOk()) {
                std::fprintf(stderr, "classifier wiring failed\n");
                return r;
            }
            reg->registerPolicy(router.policyFor(key));
        }
        registry::ScoringConfig scfg;
        scfg.enabled = true;
        scfg.max_batch = kMaxBatch;
        scfg.queue_capacity = 256;
        if (!sr.mgr->enableScoring(scfg).isOk()) {
            std::fprintf(stderr, "scoring boot failed\n");
            return r;
        }
    }

    // Same total offered load on every arm, split evenly over devices.
    double offered_rps = kOverload * capacity_vps;
    double seconds =
        static_cast<double>(target_arrivals) / offered_rps;
    Nanos duration = static_cast<Nanos>(seconds * 1e9);
    std::size_t tenants =
        std::max<std::size_t>(1, kTenants / devices);

    // One generator per device, clocked by the owning shard. They run
    // in interleaved time slices so that devices sharing a shard
    // alternate within the run — the daemon muxes CuSetDevice
    // mid-stream instead of switching once at a boundary.
    struct GenRun
    {
        std::unique_ptr<Rng> rng;
        std::unique_ptr<serve::TrafficGenerator> gen;
    };
    std::vector<GenRun> gens;
    gens.reserve(devices);
    for (std::size_t d = 0; d < devices; ++d) {
        std::size_t k = shards.shardOf(d);
        ShardRun &sr = runs[k];
        serve::ServeConfig cfg;
        cfg.enabled = true;
        cfg.tenants = tenants;
        cfg.rate_rps = offered_rps / static_cast<double>(kTenants);
        cfg.seed = 0x1a4e + 97 * d + devices;
        cfg.bucket_rate = 2.0 * cfg.rate_rps;
        cfg.bucket_burst = 16.0;
        cfg.queue_capacity = 64;
        cfg.drr_quantum = 4;
        cfg.pump_interval = 50_us;
        cfg.shards = 1;

        GenRun g;
        g.rng = std::make_unique<Rng>(0xfeedull + d);
        g.gen = std::make_unique<serve::TrafficGenerator>(
            *sr.mgr, shards.shard(k).clock(), cfg, sysFor(d),
            std::vector<std::string>{"dev" + std::to_string(d)});
        Rng *fv_rng = g.rng.get();
        g.gen->setRequestFactory([fv_rng](std::size_t, Nanos now) {
            return storage::randomLinnosRequest(*fv_rng, now);
        });
        gens.push_back(std::move(g));
    }

    constexpr std::size_t kSlices = 8;
    for (std::size_t s = 0; s < kSlices; ++s)
        for (std::size_t d = 0; d < devices; ++d)
            gens[d].gen->run(duration / kSlices);

    r.conserved = true;
    for (std::size_t d = 0; d < devices; ++d) {
        serve::ServeSummary s = gens[d].gen->summary(duration);
        r.arrivals += s.arrivals;
        r.completions += s.completions;
        if (s.arrivals != s.admits + s.bucket_rejects)
            r.conserved = false;
        if (s.admits != s.completions + s.queue_sheds + s.failures +
                            s.queued_residual)
            r.conserved = false;
    }
    gens.clear();

    r.makespan = shards.makespan();
    r.commands = shards.totalCalls();
    r.migrations = router.migrations();
    double span_s = static_cast<double>(r.makespan) / 1e9;
    if (span_s > 0.0) {
        r.vectors_per_sec =
            static_cast<double>(r.gpu_vectors + r.cpu_vectors) / span_s;
        r.cmds_per_sec = static_cast<double>(r.commands) / span_s;
    }
    for (std::size_t d = 0; d < devices; ++d) {
        r.per_device[d].launches = fleet.at(d).launches();
        r.per_device[d].utilization =
            fleet.at(d).utilization(r.makespan, r.makespan);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    const char *out_path = "BENCH_fleet.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
        else
            out_path = argv[i];
    }

    bench::banner("BENCH fleet",
                  "sharded lakeD fleet scaling: fixed 10x-overload "
                  "multi-tenant load vs 1/2/4/8 devices (plus a "
                  "4-device/2-shard CuSetDevice-muxing arm)");

    double capacity_vps = calibrateGpuVps();
    if (capacity_vps <= 0.0) {
        std::fprintf(stderr, "capacity calibration failed\n");
        return 1;
    }
    std::printf("calibrated single-device capacity %.0f vectors/sec "
                "(virtual, batch-%zu GPU inference, sync copies)\n\n",
                capacity_vps, kMaxBatch);

    const std::uint64_t target_arrivals = smoke ? 12000 : 96000;
    struct Arm
    {
        std::size_t devices;
        std::size_t shards;
    };
    const std::vector<Arm> arms = {
        {1, 1}, {2, 2}, {4, 4}, {8, 8}, {4, 2}};

    std::vector<ArmResult> results;
    for (const Arm &a : arms)
        results.push_back(
            runArm(a.devices, a.shards, capacity_vps, target_arrivals));

    std::printf("%-10s %10s %12s %12s %12s %10s %8s %8s\n", "arm",
                "makespan ms", "completions", "vectors/s", "cmds/s",
                "gpu vec", "cpu vec", "migr");
    for (const ArmResult &r : results) {
        std::string tag = std::to_string(r.devices) + "dev/" +
                          std::to_string(r.shards) + "sh";
        std::printf("%-10s %11.2f %12llu %12.0f %12.0f %10llu %8llu "
                    "%8llu\n",
                    tag.c_str(), toMs(r.makespan),
                    static_cast<unsigned long long>(r.completions),
                    r.vectors_per_sec, r.cmds_per_sec,
                    static_cast<unsigned long long>(r.gpu_vectors),
                    static_cast<unsigned long long>(r.cpu_vectors),
                    static_cast<unsigned long long>(r.migrations));
        std::printf("           per-device:");
        for (std::size_t d = 0; d < r.per_device.size(); ++d)
            std::printf(" d%zu=%llu(%0.0f%%)", d,
                        static_cast<unsigned long long>(
                            r.per_device[d].vectors),
                        r.per_device[d].utilization);
        std::printf("\n");
    }
    bench::expectation(
        "with the offered load fixed at 10x one device's capacity, "
        "scored vectors/sec and commands/sec scale near-linearly to 4 "
        "devices (>= 3x of the single-device arm) and keep growing at "
        "8; the 4-device/2-shard arm stays shard-bound near the "
        "2-shard arm with the work spread over all four devices and "
        "CuSetDevice muxing on the wire");

    bench::JsonWriter j;
    j.beginObject();
    j.key("bench").value("fleet_scaling");
    j.key("smoke").value(smoke ? "true" : "false");
    j.key("config").beginObject();
    j.key("tenants").value(kTenants);
    j.key("overload").value(kOverload);
    j.key("capacity_vps").value(capacity_vps);
    j.key("target_arrivals").value(target_arrivals);
    j.key("max_batch").value(kMaxBatch);
    j.key("exec_threshold").value(kExecThreshold);
    j.endObject();
    j.key("arms").beginArray();
    for (const ArmResult &r : results) {
        j.beginObject();
        j.key("devices").value(r.devices);
        j.key("shards").value(r.shards);
        j.key("makespan_ms").value(toMs(r.makespan));
        j.key("arrivals").value(r.arrivals);
        j.key("completions").value(r.completions);
        j.key("gpu_vectors").value(r.gpu_vectors);
        j.key("cpu_vectors").value(r.cpu_vectors);
        j.key("commands").value(r.commands);
        j.key("migrations").value(r.migrations);
        j.key("vectors_per_sec").value(r.vectors_per_sec);
        j.key("cmds_per_sec").value(r.cmds_per_sec);
        j.key("conserved").value(r.conserved ? "true" : "false");
        j.key("per_device").beginArray();
        for (const DeviceTally &d : r.per_device) {
            j.beginObject();
            j.key("vectors").value(d.vectors);
            j.key("launches").value(d.launches);
            j.key("utilization_pct").value(d.utilization);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endArray();
    bench::provenance(j);
    j.endObject();
    if (!j.writeFile(out_path)) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::printf("wrote %s\n", out_path);

    // Behavioral gates (smoke and full runs alike).
    bool ok = true;
    const ArmResult *one = nullptr, *four = nullptr;
    for (const ArmResult &r : results) {
        if (r.devices == 1 && r.shards == 1)
            one = &r;
        if (r.devices == 4 && r.shards == 4)
            four = &r;
        if (!r.conserved) {
            std::fprintf(stderr,
                         "FAIL: %zu-device arm lost arrivals\n",
                         r.devices);
            ok = false;
        }
        if (r.completions == 0 || r.makespan == 0) {
            std::fprintf(stderr, "FAIL: %zu-device arm did no work\n",
                         r.devices);
            ok = false;
        }
        for (std::size_t d = 0; d < r.per_device.size(); ++d)
            if (r.per_device[d].vectors == 0) {
                std::fprintf(
                    stderr,
                    "FAIL: %zu-device arm left device %zu idle\n",
                    r.devices, d);
                ok = false;
            }
    }
    double min_scale = smoke ? 2.5 : 3.0;
    if (one && four && one->vectors_per_sec > 0.0) {
        double vec_scale = four->vectors_per_sec / one->vectors_per_sec;
        double cmd_scale = four->cmds_per_sec / one->cmds_per_sec;
        std::printf("scaling at 4 devices: %.2fx vectors/sec, "
                    "%.2fx cmds/sec\n",
                    vec_scale, cmd_scale);
        if (vec_scale < min_scale || cmd_scale < min_scale) {
            std::fprintf(stderr,
                         "FAIL: 4-device scaling below %.1fx\n",
                         min_scale);
            ok = false;
        }
    } else {
        std::fprintf(stderr, "FAIL: missing 1- or 4-device arm\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
