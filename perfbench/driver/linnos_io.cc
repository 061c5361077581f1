// linnos_io: the §7.1 Fig. 7 "Mixed+" experiment driven from outside
// the library. Azure, Bing-I and Cosmos traces re-rated to 3x IOPS
// replay open-loop in virtual time on three NvmeDevices; every read
// becomes a feature vector in its device's registry (Listing 4:
// capture -> commit -> getFeatures -> scoreFeatures -> truncate) and the
// base LinnOS NN scores it batched, on the CPU or through LAKE on the
// GPU per BatchThresholdPolicy. Reads predicted slow are rerouted.
//
// The replay mirrors storage::runE2e's LakeNn mode call for call, so
// crossCheck() can demand that runE2e reproduces its reads, reroutes,
// mean and p99 read latency exactly for the same traces, model and seed.

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <unordered_map>

#include "base/stats.h"
#include "core/lake.h"
#include "ml/backends.h"
#include "obs/metrics.h"
#include "registry/manager.h"
#include "sim/simulator.h"
#include "storage/e2e.h"
#include "storage/linnos.h"
#include "storage/nvme.h"
#include "storage/trace.h"
#include "linnos_features.h"
#include "traced_policy.h"
#include "workload.h"

namespace lake::perfbench {

namespace {

using storage::kLinnosHistory;

constexpr std::size_t kDevices = 3;
constexpr const char *kSys = "bio_latency_prediction";

struct QueuedRead
{
    storage::Io io;
    Nanos arrival;
    Nanos commit_ts;
};

struct DeviceState
{
    std::unique_ptr<storage::NvmeDevice> dev;
    std::array<std::uint32_t, kLinnosHistory> history{};
    std::vector<QueuedRead> queued;
    bool flush_scheduled = false;
    Nanos next_commit_ts = 1;
    registry::Registry *reg = nullptr;
    registry::CaptureHandle cap;
    std::array<std::uint32_t, kLinnosHistory> lat_cols{};
    std::uint32_t pend_col = 0;
};

class LinnosIo final : public Workload
{
  public:
    explicit LinnosIo(const Params &p) : p_(p) {}

    double prepare() override;
    RepOutput rep(std::uint64_t seed, Tracer *tr) override;
    void crossCheck(std::uint64_t seed, const RepOutput &first,
                    std::vector<std::string> &errors) override;

  private:
    std::vector<storage::TraceSpec> specs() const
    {
        double f = p_.num("iops_scale");
        return {storage::TraceSpec::azure().rerated(f),
                storage::TraceSpec::bingI().rerated(f),
                storage::TraceSpec::cosmos().rerated(f)};
    }

    Params p_;
    /** The fixed base LinnOS NN every round scores with. */
    std::unique_ptr<ml::Mlp> model_;
    double train_s_ = 0.0;
};

double
LinnosIo::prepare()
{
    double t0 = hostSeconds();
    Rng rng(p_.u64("model_seed"));
    storage::LinnosDataset data = storage::collectLinnosData(
        storage::TraceSpec::azure().rerated(p_.num("iops_scale")),
        storage::NvmeSpec::samsung980Pro(),
        static_cast<Nanos>(p_.num("train_ms") * 1e6),
        p_.num("train_quantile"), p_.u64("train_seed"));
    model_ = std::make_unique<ml::Mlp>(storage::trainLinnosModel(
        data, 0, p_.count("train_epochs"),
        static_cast<float>(p_.num("train_lr")), rng));
    train_s_ = hostSeconds() - t0;
    return train_s_;
}

RepOutput
LinnosIo::rep(std::uint64_t seed, Tracer *tr)
{
    RepOutput out;
    const std::size_t batch_max = p_.count("batch_max");
    const Nanos quantum = static_cast<Nanos>(p_.num("quantum_us") * 1e3);
    const Nanos duration = static_cast<Nanos>(p_.num("duration_ms") * 1e6);

    // ---- set-up: inputs, boot, model upload --------------------------
    double t_setup = hostSeconds();
    std::vector<std::vector<storage::TraceEvent>> traces;
    {
        Rng trace_rng(seed);
        for (const storage::TraceSpec &s : specs())
            traces.push_back(storage::generateTrace(s, duration, trace_rng));
    }
    const ml::Mlp &model = *model_;

    double t_boot = hostSeconds();
    sim::Simulator simr;
    core::LakeConfig lake_cfg;
    lake_cfg.obs.metrics = tr != nullptr;
    core::Lake lake(lake_cfg);
    double boot_s = hostSeconds() - t_boot;
    if (tr)
        tr->setVirtualClock([&lake] { return lake.clock().now(); });

    double t_model = hostSeconds();
    ml::CpuMlp cpu_mlp(model, lake.kernelCpu());
    ml::LakeMlp lake_mlp(model, lake.lib(), /*sync_copy=*/false, batch_max);
    if (lake.streaming() != nullptr)
        lake_mlp.enableStreaming(lake.streaming());
    double model_s = train_s_ + hostSeconds() - t_model;

    std::uint64_t gpu_decisions = 0, decisions = 0;
    std::array<DeviceState, kDevices> devs;
    for (std::size_t d = 0; d < kDevices; ++d) {
        devs[d].dev = std::make_unique<storage::NvmeDevice>(
            simr, storage::NvmeSpec::samsung980Pro(),
            seed * 1000003ull + d, "nvme" + std::to_string(d));
        Status st = lake.registries().createRegistry(
            devs[d].dev->name(), kSys, linnosSchema(), batch_max * 4);
        if (!st.isOk()) {
            out.errors.push_back("createRegistry: " + st.toString());
            return out;
        }
        devs[d].reg = lake.registries().find(devs[d].dev->name(), kSys);
        devs[d].cap =
            lake.registries().captureHandle(devs[d].dev->name(), kSys);
        for (std::size_t h = 0; h < kLinnosHistory; ++h)
            devs[d].lat_cols[h] = devs[d].cap.column(kLatFeature[h]);
        devs[d].pend_col = devs[d].cap.column("pend_ios");
        devs[d].reg->registerPolicy(std::make_unique<TracedPolicy>(
            lake.degradationGuard(
                std::make_unique<policy::BatchThresholdPolicy>(
                    p_.count("gpu_batch_threshold"))),
            tr, &decisions, &gpu_decisions));
        devs[d].reg->registerClassifier(
            registry::Arch::Cpu,
            [&cpu_mlp, tr](const std::vector<registry::FeatureVector> &fvs) {
                Span s(tr, Kind::Classifier);
                ml::Matrix x;
                {
                    Span f(tr, Kind::MlFeaturize);
                    x = featurize(fvs);
                    f.vectors(fvs.size());
                }
                Span c(tr, Kind::MlCpuClassify);
                c.vectors(fvs.size());
                std::vector<int> cls = cpu_mlp.classify(x);
                return std::vector<float>(cls.begin(), cls.end());
            });
        devs[d].reg->registerClassifier(
            registry::Arch::Gpu,
            [&lake_mlp, &cpu_mlp, &lake,
             tr](const std::vector<registry::FeatureVector> &fvs) {
                Span s(tr, Kind::Classifier);
                ml::Matrix x;
                {
                    Span f(tr, Kind::MlFeaturize);
                    x = featurize(fvs);
                    f.vectors(fvs.size());
                }
                Result<std::vector<int>> r(std::vector<int>{});
                {
                    Span g(tr, Kind::MlGpuClassify);
                    g.vectors(fvs.size());
                    r = lake_mlp.tryClassify(x);
                }
                std::vector<int> cls;
                if (r.isOk()) {
                    cls = r.takeValue();
                } else {
                    // Same contract as the library's call sites: a
                    // remoting failure finishes the batch on the CPU.
                    lake.noteFallback();
                    Span c(tr, Kind::MlCpuClassify);
                    c.vectors(fvs.size());
                    cls = cpu_mlp.classify(x);
                }
                return std::vector<float>(cls.begin(), cls.end());
            });
        devs[d].reg->beginFvCapture(0);
    }
    out.setup_s = hostSeconds() - t_setup;
    out.layer["core.boot_host_ms"] = boot_s * 1e3;
    out.layer["core.model_setup_host_ms"] = model_s * 1e3;

    // ---- the replay (mirrors storage::runE2e, E2eMode::LakeNn) -------
    PercentileTracker read_lats;
    RunningStat read_stat;
    PercentileTracker queue_wait_us;
    RunningStat batch_sizes;
    std::uint64_t reads = 0, writes = 0, rerouted = 0, batches = 0,
                  gpu_batches = 0, rr = 0;

    auto onReadComplete = [&](std::size_t d, Nanos arrival) {
        Nanos total = simr.now() - arrival;
        read_lats.add(toUs(total));
        read_stat.add(toUs(total));
        out.lat_us.push_back(toUs(total));
        DeviceState &ds = devs[d];
        std::uint32_t lat_us =
            static_cast<std::uint32_t>(toUs(simr.now() - arrival));
        for (std::size_t i = kLinnosHistory - 1; i > 0; --i)
            ds.history[i] = ds.history[i - 1];
        ds.history[0] = lat_us;
        Span s(tr, Kind::RegCapture);
        for (std::size_t h = 0; h < kLinnosHistory; ++h)
            ds.cap.captureFeatureCol(ds.lat_cols[h], ds.history[h]);
        ds.cap.captureFeatureCol(
            ds.pend_col, static_cast<std::uint64_t>(ds.dev->pending()));
    };

    auto submitRead = [&](std::size_t target, const storage::Io &io,
                          Nanos arrival, std::uint32_t req) {
        ++reads;
        Span s(tr, Kind::StorageSubmit, req);
        devs[target].dev->submit(io, [&, target, arrival, req](Nanos) {
            Span e(tr, Kind::Event, req);
            onReadComplete(target, arrival);
        });
    };

    auto submitWrite = [&](std::size_t d, const storage::Io &io,
                           std::uint32_t req) {
        ++writes;
        DeviceState &ds = devs[d];
        {
            Span s(tr, Kind::StorageSubmit, req);
            ds.dev->submit(io, [&, d, req](Nanos) {
                Span e(tr, Kind::Event, req);
                DeviceState &st = devs[d];
                Span c(tr, Kind::RegCapture, req);
                st.cap.captureFeatureCol(
                    st.pend_col,
                    static_cast<std::uint64_t>(st.dev->pending()));
            });
        }
        Span c(tr, Kind::RegCapture, req);
        ds.cap.captureFeatureCol(
            ds.pend_col, static_cast<std::uint64_t>(ds.dev->pending()));
    };

    // Request ids of the reads waiting in each device's batch.
    std::array<std::vector<std::uint32_t>, kDevices> queued_req;

    std::function<void(std::size_t)> flush = [&](std::size_t d) {
        DeviceState &ds = devs[d];
        ds.flush_scheduled = false;
        if (ds.queued.empty())
            return;

        std::unordered_map<Nanos, std::size_t> by_ts;
        for (std::size_t i = 0; i < ds.queued.size(); ++i)
            by_ts.emplace(ds.queued[i].commit_ts, i);
        std::vector<std::size_t> order;
        std::vector<registry::FeatureVector> batch;
        std::vector<registry::FeatureVector> fvs;
        {
            Span s(tr, Kind::RegRead);
            fvs = ds.reg->getFeatures();
        }
        for (auto &fv : fvs) {
            auto it = by_ts.find(fv.ts_end);
            if (it != by_ts.end()) {
                batch.push_back(std::move(fv));
                order.push_back(it->second);
            }
        }

        Clock &clk = lake.clock();
        clk.advanceTo(simr.now());
        Nanos t0 = clk.now();
        std::vector<float> scores;
        {
            Span s(tr, Kind::RegScore);
            scores = ds.reg->scoreFeatures(batch, clk.now());
        }
        Nanos infer = clk.now() - t0;

        ++batches;
        batch_sizes.add(static_cast<double>(order.size()));
        bool on_gpu = ds.reg->lastEngine() == policy::Engine::Gpu;
        if (on_gpu)
            ++gpu_batches;

        std::vector<QueuedRead> queued = std::move(ds.queued);
        ds.queued.clear();
        std::vector<std::uint32_t> reqs = std::move(queued_req[d]);
        queued_req[d].clear();
        {
            Span s(tr, Kind::RegTruncate);
            ds.reg->truncateFeatures();
        }

        std::size_t n = order.size();
        for (std::size_t i = 0; i < n; ++i) {
            Nanos done = on_gpu ? infer
                                : infer * static_cast<Nanos>(i + 1) /
                                      static_cast<Nanos>(n);
            const QueuedRead &qr = queued[order[i]];
            queue_wait_us.add(toUs(simr.now() - qr.arrival));
            std::size_t target = d;
            if (scores[i] >= 0.5f) {
                ++rerouted;
                target = (d + 1 + (rr++ % (kDevices - 1))) % kDevices;
            }
            storage::Io io = qr.io;
            Nanos arrival = qr.arrival;
            std::uint32_t req = reqs[order[i]];
            simr.scheduleIn(done, [&, target, io, arrival, req] {
                Span e(tr, Kind::Event, req);
                submitRead(target, io, arrival, req);
            });
        }
    };

    std::uint32_t next_req = 0;
    for (std::size_t d = 0; d < kDevices; ++d) {
        for (const storage::TraceEvent &ev : traces[d]) {
            std::uint32_t req = next_req++;
            simr.schedule(ev.at, [&, d, ev, req] {
                Span e(tr, Kind::Event, req);
                if (!ev.io.is_read) {
                    submitWrite(d, ev.io, req);
                    return;
                }
                DeviceState &ds = devs[d];
                {
                    Span s(tr, Kind::RegCapture, req);
                    ds.cap.captureFeatureCol(
                        ds.pend_col,
                        static_cast<std::uint64_t>(ds.dev->pending()));
                }
                Nanos ts = std::max(simr.now(), ds.next_commit_ts);
                ds.next_commit_ts = ts + 1;
                {
                    Span s(tr, Kind::RegCommit, req);
                    ds.reg->commitFvCapture(ts);
                }
                ds.queued.push_back(QueuedRead{ev.io, simr.now(), ts});
                queued_req[d].push_back(req);
                if (ds.queued.size() >= batch_max) {
                    flush(d);
                } else if (!ds.flush_scheduled) {
                    ds.flush_scheduled = true;
                    simr.scheduleIn(quantum, [&, d] {
                        Span q(tr, Kind::Event);
                        flush(d);
                    });
                }
            });
        }
    }

    std::uint64_t allocs0 = obs::Metrics::global().shm_allocs.get();
    double t_run = hostSeconds();
    {
        Span root(tr, Kind::Timed);
        Span s(tr, Kind::SimRun);
        simr.run();
    }
    out.timed_s = hostSeconds() - t_run;
    std::uint64_t allocs = obs::Metrics::global().shm_allocs.get() - allocs0;

    // ---- results and output checks ----------------------------------
    const double ios = static_cast<double>(reads + writes);
    out.ops = ios;
    out.attempted = reads + writes;
    std::uint64_t completed = 0;
    for (const DeviceState &ds : devs)
        completed += ds.dev->completed();
    if (completed != reads + writes)
        out.errors.push_back("linnos_io: " + std::to_string(completed) +
                             " of " + std::to_string(reads + writes) +
                             " I/Os completed");
    out.failed = reads + writes - std::min(completed, reads + writes);
    if (batch_sizes.count() == 0 || static_cast<std::uint64_t>(
                                        batch_sizes.sum()) !=
                                        read_stat.count())
        out.errors.push_back("linnos_io: scored vectors != reads");
    for (const DeviceState &ds : devs)
        if (!ds.queued.empty())
            out.errors.push_back("linnos_io: reads left unscored");

    out.v_ops = ios;
    out.v_seconds = toSec(simr.now());
    out.v["p50_read_lat_us"] = read_lats.percentile(50.0);
    out.v["p99_read_lat_us"] = read_lats.percentile(99.0);
    out.v["reads"] = static_cast<double>(read_stat.count());
    out.v["rerouted"] = static_cast<double>(rerouted);
    out.v["avg_read_lat_us"] = read_stat.mean();
    out.v["batches"] = static_cast<double>(batches);
    out.v["gpu_batches"] = static_cast<double>(gpu_batches);

    auto &L = out.layer;
    L["storage.reroute_ratio"] = perOp(static_cast<double>(rerouted),
                                       static_cast<double>(reads));
    L["sim.events"] = static_cast<double>(simr.eventsFired());
    L["registry.batch_mean"] = batch_sizes.mean();
    L["registry.queue_wait_v_us_p99"] = queue_wait_us.percentile(99.0);
    L["registry.shed_ratio"] = 0.0;
    L["policy.decisions"] = static_cast<double>(decisions);
    L["policy.gpu_ratio"] = perOp(static_cast<double>(gpu_decisions),
                                  static_cast<double>(decisions));
    L["ml.cpu_fallbacks"] =
        static_cast<double>(lake.remoteStats().fallbacks);
    remote::LakeLib &lib = lake.lib();
    L["remote.calls_per_op"] = perOp(static_cast<double>(lib.calls()), ios);
    L["remote.daemon_commands_per_op"] =
        perOp(static_cast<double>(lake.daemon().commandsHandled()), ios);
    L["remote.doorbells_per_op"] =
        perOp(static_cast<double>(lib.doorbells()), ios);
    L["remote.batches_flushed"] = static_cast<double>(lib.batchesFlushed());
    L["remote.bytes_marshalled"] =
        static_cast<double>(lib.bytesMarshalled());
    L["remote.faults"] = static_cast<double>(lib.faultsSeen());
    L["remote.retries"] = static_cast<double>(lib.retries());
    L["channel.messages_per_op"] =
        perOp(static_cast<double>(lake.channel().messagesSent()), ios);
    L["channel.bytes_per_op"] =
        perOp(static_cast<double>(lake.channel().bytesSent()), ios);
    L["gpu.launches"] = static_cast<double>(lake.device().launches());
    L["gpu.util_pct_mean"] =
        lake.device().utilization(lake.clock().now(), lake.clock().now());
    L["gpu.util_pct_spread"] = 0.0;
    L["shm.highwater_bytes"] = static_cast<double>(lake.arena().highwater());
    L["shm.allocs_per_op"] = perOp(static_cast<double>(allocs), ios);

    if (tr) {
        const KindStat &sub = tr->stat(Kind::StorageSubmit);
        L["storage.submit_host_ns"] =
            perOp(static_cast<double>(sub.self_host),
                  static_cast<double>(sub.count));
        L["sim.self_host_ns_per_event"] =
            perOp(static_cast<double>(tr->stat(Kind::SimRun).self_host),
                  static_cast<double>(simr.eventsFired()));
        L["registry.capture_host_ns"] = perOp(
            static_cast<double>(tr->stat(Kind::RegCapture).total_host +
                                tr->stat(Kind::RegCommit).total_host),
            ios);
        const KindStat &rd = tr->stat(Kind::RegRead);
        L["registry.read_host_ns"] =
            perOp(static_cast<double>(rd.total_host),
                  static_cast<double>(rd.count));
        const KindStat &sc = tr->stat(Kind::RegScore);
        L["registry.score_self_host_ns"] = perOp(
            static_cast<double>(sc.self_host), static_cast<double>(sc.count));
        addLayerShares(*tr, ios, L);
    }
    return out;
}

void
LinnosIo::crossCheck(std::uint64_t seed, const RepOutput &first,
                     std::vector<std::string> &errors)
{
    storage::E2eConfig cfg;
    cfg.mode = storage::E2eMode::LakeNn;
    cfg.model = model_.get();
    cfg.batch_max = p_.count("batch_max");
    cfg.quantum = static_cast<Nanos>(p_.num("quantum_us") * 1e3);
    cfg.gpu_batch_threshold = p_.count("gpu_batch_threshold");
    cfg.duration = static_cast<Nanos>(p_.num("duration_ms") * 1e6);
    cfg.seed = seed;
    storage::E2eResult r = storage::runE2e(specs(), cfg);

    auto expect = [&](const char *what, double lib, const char *key) {
        auto it = first.v.find(key);
        double ours = it == first.v.end() ? -1.0 : it->second;
        if (lib != ours)
            errors.push_back(std::string("linnos_io: storage::runE2e ") +
                             what + " " + std::to_string(lib) +
                             " != driver " + std::to_string(ours));
    };
    expect("reads", static_cast<double>(r.reads), "reads");
    expect("rerouted", static_cast<double>(r.rerouted), "rerouted");
    expect("avg read latency", r.avg_read_lat_us, "avg_read_lat_us");
    expect("p99 read latency", r.p99_read_lat_us, "p99_read_lat_us");
    expect("inference batches", static_cast<double>(r.inference_batches),
           "batches");
    expect("gpu batches", static_cast<double>(r.gpu_batches),
           "gpu_batches");
}

} // namespace

std::unique_ptr<Workload>
makeLinnosIo(const Params &p)
{
    return std::make_unique<LinnosIo>(p);
}

} // namespace lake::perfbench
