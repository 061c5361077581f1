#include "storage/e2e.h"

#include <array>
#include <deque>
#include <memory>
#include <unordered_map>

#include "base/logging.h"
#include "ml/backends.h"
#include "policy/mlgate.h"
#include "registry/manager.h"
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

/** One read waiting in a device's inference batch. */
struct QueuedRead
{
    Io io;
    Nanos arrival;
    Nanos commit_ts;
};

/** Mutable per-device state of the experiment. */
struct DeviceState
{
    std::unique_ptr<NvmeDevice> dev;
    std::array<std::uint32_t, kLinnosHistory> history{};
    std::vector<QueuedRead> queued;
    bool flush_scheduled = false;
    Nanos next_commit_ts = 1;
    registry::Registry *reg = nullptr;
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

    // ---- LakeNn batch flush ------------------------------------------
    std::function<void(std::size_t)> flush = [&](std::size_t d) {
        DeviceState &ds = devs[d];
        ds.flush_scheduled = false;
        if (ds.queued.empty())
            return;

        std::unordered_map<Nanos, std::size_t> by_ts;
        for (std::size_t i = 0; i < ds.queued.size(); ++i)
            by_ts.emplace(ds.queued[i].commit_ts, i);
        // Listing 4: pin the window and select the queued rows — no
        // copies, the scored floats stay in shm, and a truncate below
        // defers recycling behind the pinned view.
        std::vector<std::size_t> order;
        registry::FvBatchView view;
        {
            registry::FvBatchView all = ds.reg->batchView();
            std::vector<std::size_t> rows;
            for (std::size_t i = 0; i < all.size(); ++i) {
                auto it = by_ts.find(all.tsEnd(i));
                if (it != by_ts.end()) {
                    rows.push_back(i);
                    order.push_back(it->second);
                }
            }
            view = all.select(rows);
        }

        // The §7.1 modulation gate: when recent batches produced no
        // slow predictions, skip inference entirely — the I/Os go
        // straight to their home device with zero added latency.
        if (use_gate && !gate.shouldInfer(simr.now())) {
            ++result.gated_batches;
            std::vector<QueuedRead> queued = std::move(ds.queued);
            ds.queued.clear();
            ds.reg->truncateFeatures();
            for (const QueuedRead &qr : queued)
                submitRead(d, qr.io, qr.arrival);
            return;
        }

        // Inference runs in the issuing context: its cost delays only
        // this batch's reads (LinnOS performs inference inline in the
        // submitter, not on a shared thread).
        Clock &clk = lake.clock();
        clk.advanceTo(simr.now());
        Nanos t0 = clk.now();
        std::vector<float> scores = ds.reg->scoreFeatures(view, clk.now());
        Nanos infer = clk.now() - t0;
        if (use_gate) {
            std::size_t positives = 0;
            for (float v : scores)
                positives += v >= 0.5f ? 1 : 0;
            gate.observe(positives, scores.size(), simr.now());
        }

        ++result.inference_batches;
        batch_sizes.add(static_cast<double>(order.size()));
        if (ds.reg->lastEngine() == policy::Engine::Gpu)
            ++result.gpu_batches;

        std::vector<QueuedRead> queued = std::move(ds.queued);
        ds.queued.clear();
        ds.reg->truncateFeatures();

        // GPU inference finishes the whole batch at once; the CPU
        // fallback classifies sequentially, so read i resumes after
        // (i+1)/n of the batch's inference time.
        bool on_gpu = ds.reg->lastEngine() == policy::Engine::Gpu;
        std::size_t n = order.size();
        for (std::size_t i = 0; i < n; ++i) {
            Nanos done = on_gpu
                             ? infer
                             : infer * static_cast<Nanos>(i + 1) /
                                   static_cast<Nanos>(n);
            const QueuedRead &qr = queued[order[i]];
            bool slow = scores[i] >= 0.5f;
            std::size_t target = d;
            if (slow) {
                ++result.rerouted;
                target = (d + 1 + (rr++ % (kDevices - 1))) % kDevices;
            }
            Io io = qr.io;
            Nanos arrival = qr.arrival;
            simr.scheduleIn(done, [&, target, io, arrival] {
                submitRead(target, io, arrival);
            });
        }
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

                    bool slow = cls[0] == 1;
                    std::size_t target = d;
                    if (slow) {
                        ++result.rerouted;
                        target = (d + 1 + (rr++ % (kDevices - 1))) %
                                 kDevices;
                    }
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
                    // vector; flush on batch size or quantum.
                    ds.cap.captureFeatureCol(
                        ds.pend_col,
                        static_cast<std::uint64_t>(ds.dev->pending()));
                    Nanos ts = std::max(simr.now(), ds.next_commit_ts);
                    ds.next_commit_ts = ts + 1;
                    ds.reg->commitFvCapture(ts);
                    ds.queued.push_back(
                        QueuedRead{ev.io, simr.now(), ts});

                    if (ds.queued.size() >= config.batch_max) {
                        flush(d);
                    } else if (!ds.flush_scheduled) {
                        ds.flush_scheduled = true;
                        simr.scheduleIn(config.quantum,
                                        [&, d] { flush(d); });
                    }
                    break;
                  }
                }
            });
        }
    }

    simr.run();
    // The quantum timers always fire inside the run, so every queued
    // batch has been flushed by the time the event queue drains.

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
