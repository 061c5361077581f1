#include "storage/e2e.h"

#include <array>
#include <memory>

#include "base/logging.h"
#include "ml/backends.h"
#include "policy/mlgate.h"
#include "registry/manager.h"
#include "registry/scoreserver.h"
#include "sim/simulator.h"
#include "storage/linnos.h"

namespace lake::storage {

const char *
e2eModeName(E2eMode m)
{
    switch (m) {
      case E2eMode::Baseline: return "Baseline";
      case E2eMode::CpuNn:    return "NN cpu";
      case E2eMode::LakeNn:   return "NN LAKE";
      case E2eMode::LakeAdaptive: return "NN LAKE+gate";
    }
    return "?";
}

namespace {

constexpr std::size_t kDevices = 3;
constexpr const char *kSys = "bio_latency_prediction";

/** Mutable per-device state of the experiment. */
struct DeviceState
{
    std::unique_ptr<NvmeDevice> dev;
    std::array<std::uint32_t, kLinnosHistory> history{};
    registry::Registry *reg = nullptr;
    /** The device's batch former (LAKE modes). One server per device,
     *  so a flush of this device never drains another device's reads. */
    std::unique_ptr<registry::ScoreServer> batcher;
    /** Cached capture handle + interned columns: the completion and
     *  submission paths fire per I/O, so they must not re-hash feature
     *  names or re-walk the manager's registry map. */
    registry::CaptureHandle cap;
    std::array<std::uint32_t, kLinnosHistory> lat_cols{};
    std::uint32_t pend_col = 0;
};

} // namespace

E2eResult
runE2e(const std::vector<TraceSpec> &per_device, const E2eConfig &config)
{
    LAKE_ASSERT(per_device.size() == kDevices,
                "expected %zu trace specs, got %zu", kDevices,
                per_device.size());
    LAKE_ASSERT(config.mode == E2eMode::Baseline ||
                    config.model != nullptr,
                "prediction modes need a model");

    sim::Simulator simr;
    core::LakeConfig lake_cfg;
    lake_cfg.streaming = config.streaming;
    core::Lake lake(lake_cfg);
    E2eResult result;
    PercentileTracker read_lats;
    RunningStat read_stat;

    std::uint64_t rr = 0; // round-robin reroute cursor
    RunningStat batch_sizes;

    // Optional GPU backend (LakeNn only), over Lake's fleet of one.
    std::unique_ptr<ml::FleetMlp> lake_mlp;
    std::unique_ptr<ml::CpuMlp> cpu_mlp;
    if (config.mode != E2eMode::Baseline) {
        cpu_mlp = std::make_unique<ml::CpuMlp>(*config.model,
                                               lake.kernelCpu());
    }
    bool lake_mode = config.mode == E2eMode::LakeNn ||
                     config.mode == E2eMode::LakeAdaptive;
    if (lake_mode) {
        lake_mlp = std::make_unique<ml::FleetMlp>(
            *config.model, lake.router(), /*sync_copy=*/false,
            config.batch_max);
        if (lake.streaming() != nullptr)
            lake_mlp->device(0).enableStreaming(lake.streaming());
    }
    // Arm faults only after the model upload so boot staging is clean;
    // everything from here on must survive a misbehaving channel.
    if (config.inject_faults)
        lake.channel().installFaults(config.faults);
    policy::MlGate gate(config.gate);
    bool use_gate = config.mode == E2eMode::LakeAdaptive;

    std::array<DeviceState, kDevices> devs;
    for (std::size_t d = 0; d < kDevices; ++d) {
        devs[d].dev = std::make_unique<NvmeDevice>(
            simr, config.device, config.seed * 1000003ull + d,
            detail::format("nvme%zu", d));

        if (lake_mode) {
            Status st = lake.registries().createRegistry(
                devs[d].dev->name(), kSys, linnosSchema(),
                config.batch_max * 4);
            LAKE_ASSERT(st.isOk(), "registry: %s",
                        st.toString().c_str());
            devs[d].reg =
                lake.registries().find(devs[d].dev->name(), kSys);
            devs[d].cap =
                lake.registries().captureHandle(devs[d].dev->name(),
                                                kSys);
            for (std::size_t h = 0; h < kLinnosHistory; ++h)
                devs[d].lat_cols[h] =
                    devs[d].cap.column(kLinnosLatFeatures[h]);
            devs[d].pend_col = devs[d].cap.column("pend_ios");
            // Fig. 3 plumbing with the ISSUE-2 guard: once remoting
            // degrades, every decision comes back Engine::Cpu.
            devs[d].reg->registerPolicy(lake.degradationGuard(
                std::make_unique<policy::BatchThresholdPolicy>(
                    config.gpu_batch_threshold)));
            // Seal-time encoder: the LinnOS digit encoding runs once
            // per commit, so scoring reads finished float rows straight
            // out of shm.
            devs[d].reg->soa().setFloatEncoder(kLinnosFeatures,
                                               encodeLinnosRow);
            // Zero-copy CPU dispatch: the strided windows feed the GEMM
            // substrate in place.
            devs[d].reg->registerClassifier(
                registry::Arch::Cpu,
                [&cpu_mlp](const registry::FvBatchView &v) {
                    std::vector<int> c = cpu_mlp->classify(v.matrixViews());
                    return std::vector<float>(c.begin(), c.end());
                });
            // GPU dispatch takes the same strided windows: each row is
            // copied once, from the SoA slot straight into lakeShm. A
            // remoting failure mid-batch must not kill the I/O path:
            // FleetMlp finishes that batch on the CPU and counts the
            // fallback.
            devs[d].reg->registerClassifier(
                registry::Arch::Gpu,
                [&lake_mlp, &cpu_mlp,
                 key = devs[d].dev->name()](const registry::FvBatchView &v) {
                    std::vector<int> c =
                        lake_mlp->classify(key, v.matrixViews(), *cpu_mlp)
                            .labels;
                    return std::vector<float>(c.begin(), c.end());
                });
            devs[d].reg->beginFvCapture(0);
            // Every read is due at enqueue (max_delay 0): the depth
            // trigger flushes at batch_max, and any poll by the quantum
            // timer flushes whatever is pending.
            devs[d].batcher = std::make_unique<registry::ScoreServer>(
                lake.registries(), lake.clock(),
                registry::ScoringConfig{.queue_capacity = config.batch_max,
                                        .max_batch = config.batch_max,
                                        .max_delay = 0});
        }
    }

    // ---- completion bookkeeping -------------------------------------
    auto onReadComplete = [&](std::size_t d, Nanos arrival, Nanos lat) {
        Nanos total = simr.now() - arrival;
        read_lats.add(toUs(total));
        read_stat.add(toUs(total));
        (void)lat;
        DeviceState &ds = devs[d];
        std::uint32_t lat_us = static_cast<std::uint32_t>(
            toUs(simr.now() - arrival));
        for (std::size_t i = kLinnosHistory - 1; i > 0; --i)
            ds.history[i] = ds.history[i - 1];
        ds.history[0] = lat_us;
        if (ds.cap.valid()) {
            for (std::size_t h = 0; h < kLinnosHistory; ++h)
                ds.cap.captureFeatureCol(ds.lat_cols[h], ds.history[h]);
            ds.cap.captureFeatureCol(
                ds.pend_col,
                static_cast<std::uint64_t>(ds.dev->pending()));
        }
    };

    // ---- submission helpers -----------------------------------------
    auto submitRead = [&](std::size_t target, const Io &io,
                          Nanos arrival) {
        ++result.reads;
        devs[target].dev->submit(io, [&, target, arrival](Nanos lat) {
            onReadComplete(target, arrival, lat);
        });
    };

    auto submitWrite = [&](std::size_t d, const Io &io) {
        ++result.writes;
        DeviceState &ds = devs[d];
        ds.dev->submit(io, [&, d](Nanos) {
            DeviceState &s = devs[d];
            if (s.cap.valid()) {
                s.cap.captureFeatureCol(
                    s.pend_col,
                    static_cast<std::uint64_t>(s.dev->pending()));
            }
        });
        if (ds.cap.valid()) {
            ds.cap.captureFeatureCol(
                ds.pend_col,
                static_cast<std::uint64_t>(ds.dev->pending()));
        }
    };

    auto reroute = [&](std::size_t d) {
        ++result.rerouted;
        return (d + 1 + (rr++ % (kDevices - 1))) % kDevices;
    };

    // ---- LakeNn batch former -----------------------------------------
    // The flush in progress (a flush runs whole inside one simulator
    // event, so there is at most one): the clock when it began, and how
    // many of its reads have resumed, `slow` of them predicted slow.
    Nanos flush_start = 0;
    std::size_t resumed = 0, slow = 0;

    // Inference runs in the issuing context: its cost delays only the
    // batch's own reads (LinnOS performs inference inline in the
    // submitter, not on a shared thread). Runs before every ScoreServer
    // call that can flush.
    auto beginFlush = [&] {
        lake.clock().advanceTo(simr.now());
        return flush_start = lake.clock().now();
    };

    // One read's share of a scored batch. GPU inference finishes the
    // whole batch at once; the CPU fallback classifies sequentially, so
    // read i resumes after (i+1)/n of the batch's inference time.
    auto onScored = [&](std::size_t d, const Io &io, Nanos arrival,
                        const registry::ScoreResult &res) {
        const std::size_t i = resumed++;
        const std::size_t n = res.batch;
        const bool on_gpu = res.engine == policy::Engine::Gpu;
        if (i == 0) {
            ++result.inference_batches;
            batch_sizes.add(static_cast<double>(n));
            if (on_gpu)
                ++result.gpu_batches;
        }
        Nanos infer = res.scored - flush_start;
        Nanos done = on_gpu ? infer
                            : infer * static_cast<Nanos>(i + 1) /
                                  static_cast<Nanos>(n);
        std::size_t target = d;
        if (res.scores[0] >= 0.5f) {
            ++slow;
            target = reroute(d);
        }
        simr.scheduleIn(done, [&, target, io, arrival] {
            submitRead(target, io, arrival);
        });
        if (resumed < n)
            return;
        if (use_gate)
            gate.observe(slow, n, simr.now());
        resumed = slow = 0;
        devs[d].reg->truncateFeatures();
    };

    // The §7.1 modulation gate, consulted once per flush before any
    // scoring: when recent batches produced no slow predictions, the
    // pending reads go straight to their home device, unscored, with
    // zero added latency (their callbacks see Unavailable).
    auto gateDrains = [&](std::size_t d) {
        if (!use_gate || gate.shouldInfer(simr.now()))
            return false;
        DeviceState &ds = devs[d];
        ++result.gated_batches;
        ds.batcher->failPending(ds.dev->name(), kSys);
        ds.reg->truncateFeatures();
        return true;
    };

    // The quantum timer. One armed before a depth flush still fires and
    // flushes the next partial batch early.
    auto pollBatch = [&](std::size_t d) {
        DeviceState &ds = devs[d];
        if (ds.batcher->pending() == 0 || gateDrains(d))
            return;
        ds.batcher->poll(beginFlush());
    };

    // ---- arrivals -----------------------------------------------------
    Rng trace_rng(config.seed);
    for (std::size_t d = 0; d < kDevices; ++d) {
        std::vector<TraceEvent> trace =
            generateTrace(per_device[d], config.duration, trace_rng);
        for (const TraceEvent &ev : trace) {
            simr.schedule(ev.at, [&, d, ev] {
                if (!ev.io.is_read) {
                    submitWrite(d, ev.io);
                    return;
                }
                DeviceState &ds = devs[d];

                switch (config.mode) {
                  case E2eMode::Baseline:
                    submitRead(d, ev.io, simr.now());
                    break;

                  case E2eMode::CpuNn: {
                    // LinnOS: synchronous per-I/O inference on the
                    // issue path, in the submitting context.
                    Clock &clk = lake.clock();
                    clk.advanceTo(simr.now());
                    Nanos t0 = clk.now();
                    ml::Matrix x(1, kLinnosFeatures);
                    encodeLinnosFeatures(
                        static_cast<std::uint32_t>(ds.dev->pending()),
                        ds.history, x.row(0));
                    std::vector<int> cls = cpu_mlp->classify(x);
                    Nanos infer = clk.now() - t0;

                    std::size_t target = cls[0] == 1 ? reroute(d) : d;
                    Nanos arrival = simr.now();
                    Io io = ev.io;
                    simr.scheduleIn(infer, [&, target, io, arrival] {
                        submitRead(target, io, arrival);
                    });
                    break;
                  }

                  case E2eMode::LakeNn:
                  case E2eMode::LakeAdaptive: {
                    // While the modulation gate is closed, reads skip
                    // the whole inference path — no batch-formation
                    // wait, no feature vector — unless a probe is due.
                    if (use_gate && gate.gated() &&
                        !gate.probeDue(simr.now())) {
                        ++result.gated_batches;
                        submitRead(d, ev.io, simr.now());
                        break;
                    }
                    // Listing 4: the arriving I/O becomes a feature
                    // vector and joins its device's batch, which flushes
                    // at batch_max or when the quantum timer polls it.
                    ds.cap.captureFeatureCol(
                        ds.pend_col,
                        static_cast<std::uint64_t>(ds.dev->pending()));
                    ds.reg->commitFvCapture(simr.now());
                    if (ds.batcher->pending() + 1 >= config.batch_max &&
                        gateDrains(d)) {
                        submitRead(d, ev.io, simr.now());
                        break;
                    }
                    beginFlush();
                    Status st = ds.batcher->submitView(
                        ds.dev->name(), kSys, ds.reg->tailView(1), 0,
                        [&, d, io = ev.io, arrival = simr.now()](
                            const registry::ScoreResult &res) {
                            if (res.status.isOk())
                                onScored(d, io, arrival, res);
                            else
                                submitRead(d, io, arrival);
                        });
                    LAKE_ASSERT(st.isOk(), "score submit: %s",
                                st.toString().c_str());
                    // The read that opens a batch arms its timer.
                    if (ds.batcher->pending() == 1)
                        simr.scheduleIn(config.quantum,
                                        [&, d] { pollBatch(d); });
                    break;
                  }
                }
            });
        }
    }

    simr.run();
    // Every non-empty batch has a quantum timer armed, so every read
    // has been scored or sent home by the time the event queue drains
    // (and no batcher's destructor runs a callback into this frame).
    for (const DeviceState &ds : devs)
        LAKE_ASSERT(!ds.batcher || ds.batcher->pending() == 0,
                    "%s: reads left unscored", ds.dev->name().c_str());

    core::RemoteStats rs = lake.remoteStats();
    result.remote_faults = rs.faults_seen;
    result.remote_retries = rs.retries;
    result.cpu_fallbacks = rs.fallbacks;
    result.degraded = rs.degraded;

    result.gate_closures = gate.closures();
    result.avg_read_lat_us = read_stat.mean();
    result.p95_read_lat_us = read_lats.percentile(95.0);
    result.p99_read_lat_us = read_lats.percentile(99.0);
    result.avg_batch = batch_sizes.mean();
    return result;
}

} // namespace lake::storage
