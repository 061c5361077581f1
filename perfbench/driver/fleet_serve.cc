// fleet_serve: the §11 open-loop multi-tenant generator over the §13
// sharded fleet. 64 tenants (16 per device) offer Poisson traffic
// through token buckets and DRR queues into one ScoreServer per shard
// (coalescing at batch 32); FleetRouter places each batch on a device,
// where a LakeMlp per device scores it through the shard's remoting
// stack, with the CPU model as fallback.
//
// Two parts, both at absolute offered rates from workloads.json: a
// nominal phase that gives the latency percentiles, and a bisection
// over offered rate for the highest rate that still meets the SLO
// (p99 and refused share). The arrival schedule and the request
// features are generated from the workload seed before the clock
// starts; the driver replays them through the generators' public
// offer()/pump() in global time order.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/logging.h"
#include "base/rng.h"
#include "gpu/fleet.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "registry/manager.h"
#include "remote/fleet.h"
#include "serve/serve.h"
#include "serve/traffic.h"
#include "storage/linnos.h"
#include "linnos_features.h"
#include "traced_policy.h"
#include "workload.h"

namespace lake::perfbench {

namespace {

using storage::kLinnosHistory;

std::string
keyFor(std::size_t d)
{
    return "dev" + std::to_string(d);
}

/**
 * One subsystem per device: the ScoreServer dispatches a coalesced
 * flush through the first registry of a subsystem, so per-device
 * classifiers must not share a coalescing group.
 */
std::string
sysFor(std::size_t d)
{
    return "fleet_serve.dev" + std::to_string(d);
}

/** LinnOS-shaped request features, drawn at set-up. */
struct Features
{
    std::uint32_t pend;
    std::array<std::uint32_t, kLinnosHistory> lat;
};

struct Arrival
{
    Nanos at;
    std::uint32_t gen;
    std::uint32_t tenant;
};

/** Outcome of one phase (the nominal run or one capacity probe). */
struct PhaseResult
{
    double rate = 0.0;
    double p50_us = 0.0; //!< completion-weighted mean of generator p50s
    double p99_us = 0.0; //!< worst generator's p99
    double fail_ratio = 0.0;
    std::uint64_t arrivals = 0;
    std::uint64_t refused = 0;
    std::uint64_t completions = 0;
    double setup_s = 0.0;
    double timed_s = 0.0;
    std::vector<std::string> errors;
};

/** Counters summed over every phase of one rep. */
struct Totals
{
    std::uint64_t decisions = 0, gpu_decisions = 0;
    std::uint64_t gpu_vectors = 0, cpu_vectors = 0, fallbacks = 0;
    std::uint64_t calls = 0, doorbells = 0, batches_flushed = 0, commands = 0;
    std::uint64_t bytes_marshalled = 0, faults = 0, retries = 0;
    std::uint64_t messages = 0, channel_bytes = 0, launches = 0;
    std::uint64_t flushes = 0, submitted = 0, shed = 0;
    std::uint64_t arrivals = 0, admits = 0;
    std::size_t shm_highwater = 0; //!< largest fleet-wide sum of arenas
    std::uint64_t timed_allocs = 0; //!< shm allocs in timed phases
    std::vector<double> util; //!< per device, nominal phase
    double boot_s = 0.0, model_s = 0.0;
};

/**
 * One booted fleet with its serving stacks. Members are destroyed in
 * reverse declaration order, so the generators and registry managers,
 * whose destructors flush and so run the classifiers, go before
 * everything those classifiers touch.
 */
class FleetRun
{
  public:
    FleetRun(const Params &p, const ml::Mlp &model, Tracer *tr,
             Totals &tot);

    FleetRun(const FleetRun &) = delete;
    FleetRun &operator=(const FleetRun &) = delete;

    /** Runs @p arrivals open-loop for @p duration, then drains. */
    void run(const std::vector<Arrival> &arrivals,
             const std::vector<Features> &features, Nanos duration,
             std::uint64_t verify_batches, PhaseResult &res);

    /** Adds this fleet's library counters to @p tot. */
    void collect(bool nominal);

  private:
    struct ShardStack
    {
        std::unique_ptr<ml::KernelCpu> cpu;
        std::unique_ptr<ml::CpuMlp> cpu_mlp;
        std::unique_ptr<registry::RegistryManager> mgr;
    };
    /** A GPU-scored batch kept for the output check. */
    struct Sample
    {
        ml::Matrix x;
        std::vector<int> cls;
    };

    const Params &p_;
    const ml::Mlp &model_;
    Tracer *tr_;
    Totals &tot_;
    std::size_t devices_;
    gpu::DeviceFleet fleet_;
    remote::ShardFleet shards_;
    remote::FleetRouter router_;
    std::vector<std::unique_ptr<ml::LakeMlp>> mlps_;
    std::vector<std::uint64_t> dev_vectors_;
    std::vector<Sample> samples_;
    std::uint64_t sample_budget_ = 0;
    /** Per-generator cursor into the pre-drawn request features. */
    std::vector<std::size_t> next_feature_;
    std::vector<ShardStack> stacks_;
    std::vector<std::unique_ptr<serve::TrafficGenerator>> gens_;
};

gpu::FleetConfig
fleetConfig(const Params &p)
{
    gpu::FleetConfig fc;
    fc.enabled = true;
    fc.devices = p.count("devices");
    fc.shards = p.count("shards");
    return fc;
}

remote::ShardParams
shardParams(const Params &p)
{
    remote::ShardParams sp;
    sp.channel = channel::Kind::Netlink;
    sp.shm_bytes = p.count("shm_mib") << 20;
    return sp;
}

FleetRun::FleetRun(const Params &p, const ml::Mlp &model, Tracer *tr,
                   Totals &tot)
    : p_(p), model_(model), tr_(tr), tot_(tot),
      devices_(p.count("devices")), fleet_(fleetConfig(p)),
      shards_(fleet_, p.count("shards"), shardParams(p)),
      router_(shards_, policy::FleetPlacementPolicy::Config{}),
      dev_vectors_(devices_, 0)
{
    const std::size_t max_batch = p_.count("max_batch");
    // Registry "dev<i>" starts on fleet device i.
    for (std::size_t d = 0; d < devices_; ++d)
        router_.lastPlacement(keyFor(d));

    // One LakeMlp per device, uploaded while that device is active so
    // its weights live in the device's own VA window.
    tot_.model_s -= hostSeconds();
    for (std::size_t d = 0; d < devices_; ++d) {
        remote::LakeShard &sh = shards_.shardFor(d);
        std::lock_guard<std::mutex> lock(sh.mu());
        if (sh.activate(shards_.localIndex(d)) != gpu::CuResult::Success)
            fatal("fleet_serve: device %zu activation failed", d);
        mlps_.push_back(std::make_unique<ml::LakeMlp>(
            model_, sh.lib(), /*sync_copy=*/true, max_batch));
    }
    tot_.model_s += hostSeconds();

    const registry::Schema schema = linnosSchema();
    stacks_.resize(shards_.size());
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        ShardStack &ss = stacks_[k];
        Clock &clock = shards_.shard(k).clock();
        ss.cpu = std::make_unique<ml::KernelCpu>(
            clock, gpu::CpuSpec::xeonGold6226R());
        ss.cpu_mlp = std::make_unique<ml::CpuMlp>(model_, *ss.cpu);
        ss.mgr = std::make_unique<registry::RegistryManager>(clock);
        for (std::size_t d = k; d < devices_; d += shards_.size()) {
            std::string key = keyFor(d);
            Status st = ss.mgr->createRegistry(key, sysFor(d), schema, 8);
            if (!st.isOk())
                fatal("fleet_serve: createRegistry: %s",
                      st.toString().c_str());
            registry::Registry *reg = ss.mgr->find(key, sysFor(d));
            ml::CpuMlp *cpu_mlp = ss.cpu_mlp.get();
            reg->registerClassifier(
                registry::Arch::Cpu,
                [this, cpu_mlp](const std::vector<registry::FeatureVector>
                                    &fvs) {
                    Span s(tr_, Kind::Classifier);
                    ml::Matrix x;
                    {
                        Span f(tr_, Kind::MlFeaturize);
                        f.vectors(fvs.size());
                        x = featurize(fvs);
                    }
                    Span c(tr_, Kind::MlCpuClassify);
                    c.vectors(fvs.size());
                    std::vector<int> cls = cpu_mlp->classify(x);
                    tot_.cpu_vectors += cls.size();
                    return std::vector<float>(cls.begin(), cls.end());
                });
            reg->registerClassifier(
                registry::Arch::Gpu,
                [this, cpu_mlp,
                 key](const std::vector<registry::FeatureVector> &fvs) {
                    Span s(tr_, Kind::Classifier);
                    ml::Matrix x;
                    {
                        Span f(tr_, Kind::MlFeaturize);
                        f.vectors(fvs.size());
                        x = featurize(fvs);
                    }
                    std::size_t dev;
                    {
                        Span r(tr_, Kind::RemoteRoute);
                        dev = router_.lastPlacement(key);
                        router_.noteDispatch(dev, fvs.size());
                    }
                    remote::LakeShard &sh = shards_.shardFor(dev);
                    std::vector<int> cls;
                    bool ok = false;
                    {
                        std::lock_guard<std::mutex> lock(sh.mu());
                        gpu::CuResult act;
                        {
                            Span r(tr_, Kind::RemoteRoute);
                            act = sh.activate(shards_.localIndex(dev));
                        }
                        if (act == gpu::CuResult::Success) {
                            Span g(tr_, Kind::MlGpuClassify);
                            g.vectors(fvs.size());
                            auto res = mlps_[dev]->tryClassify(x);
                            if (res.isOk()) {
                                cls = res.takeValue();
                                ok = true;
                            }
                        }
                    }
                    {
                        Span r(tr_, Kind::RemoteRoute);
                        router_.noteDone(dev);
                    }
                    if (!ok) {
                        // Mid-batch remoting failure: finish on the CPU,
                        // the library's fallback contract.
                        sh.health().fallbacks.fetch_add(1);
                        ++tot_.fallbacks;
                        Span c(tr_, Kind::MlCpuClassify);
                        c.vectors(fvs.size());
                        cls = cpu_mlp->classify(x);
                        tot_.cpu_vectors += cls.size();
                    } else {
                        dev_vectors_[dev] += cls.size();
                        tot_.gpu_vectors += cls.size();
                        if (samples_.size() < sample_budget_)
                            samples_.push_back(Sample{x, cls});
                    }
                    return std::vector<float>(cls.begin(), cls.end());
                });
            reg->registerPolicy(std::make_unique<TracedPolicy>(
                router_.policyFor(key), tr_, &tot_.decisions,
                &tot_.gpu_decisions));
        }
        registry::ScoringConfig scfg;
        scfg.enabled = true;
        scfg.max_batch = max_batch;
        scfg.queue_capacity = p_.count("score_queue_capacity");
        Status st = ss.mgr->enableScoring(scfg);
        if (!st.isOk())
            fatal("fleet_serve: enableScoring: %s", st.toString().c_str());
    }
}

void
FleetRun::run(const std::vector<Arrival> &arrivals,
              const std::vector<Features> &features, Nanos duration,
              std::uint64_t verify_batches, PhaseResult &res)
{
    sample_budget_ = verify_batches;
    const std::size_t tenants = p_.count("tenants") / devices_;
    const Nanos pump_interval =
        static_cast<Nanos>(p_.num("pump_interval_us") * 1e3);

    // Generators are part of set-up: one per device, clocked by its
    // shard, fed pre-drawn request features in dispatch order.
    double t0 = hostSeconds();
    next_feature_.assign(devices_, 0);
    for (std::size_t d = 0; d < devices_; ++d) {
        serve::ServeConfig cfg;
        cfg.enabled = true;
        cfg.tenants = tenants;
        cfg.rate_rps = res.rate / static_cast<double>(p_.count("tenants"));
        cfg.bucket_rate = p_.num("bucket_rate_factor") * cfg.rate_rps;
        cfg.bucket_burst = p_.num("bucket_burst");
        cfg.queue_capacity = p_.count("tenant_queue_capacity");
        cfg.drr_quantum = p_.count("drr_quantum");
        cfg.pump_interval = pump_interval;
        cfg.shards = 1;
        std::size_t k = shards_.shardOf(d);
        gens_.push_back(std::make_unique<serve::TrafficGenerator>(
            *stacks_[k].mgr, shards_.shard(k).clock(), cfg, sysFor(d),
            std::vector<std::string>{keyFor(d)}));
        std::size_t *cursor = &next_feature_[d];
        const std::size_t stride = devices_;
        gens_.back()->setRequestFactory(
            [&features, cursor, d, stride](std::size_t, Nanos now) {
                const Features &f =
                    features[(d + stride * (*cursor)++) % features.size()];
                registry::FeatureVector fv;
                fv.ts_begin = now;
                fv.ts_end = now;
                fv.values[registry::featureKey("pend_ios")] = {f.pend};
                for (std::size_t h = 0; h < kLinnosHistory; ++h)
                    fv.values[registry::featureKey(kLatFeature[h])] = {
                        f.lat[h]};
                return fv;
            });
    }
    Nanos start = 0;
    for (std::size_t k = 0; k < shards_.size(); ++k)
        start = std::max(start, shards_.shard(k).clock().now());
    res.setup_s += hostSeconds() - t0;

    // The open loop, in global virtual-time order over all generators:
    // arrivals at their scheduled slot (never delayed by completions),
    // pump ticks every pump_interval per generator.
    auto clockOf = [&](std::size_t d) -> Clock & {
        return shards_.shard(shards_.shardOf(d)).clock();
    };
    if (tr_)
        tr_->setVirtualClock([this] {
            Nanos sum = 0;
            for (std::size_t k = 0; k < shards_.size(); ++k)
                sum += shards_.shard(k).clock().now();
            return sum;
        });
    const std::uint64_t allocs0 = obs::Metrics::global().shm_allocs.get();
    t0 = hostSeconds();
    {
        Span root(tr_, Kind::Timed);
        const Nanos end = start + duration;
        std::vector<Nanos> next_pump(devices_, start + pump_interval);
        std::size_t ai = 0;
        for (;;) {
            Nanos ta = ai < arrivals.size() ? start + arrivals[ai].at
                                            : end + 1;
            std::size_t pd = 0;
            for (std::size_t d = 1; d < devices_; ++d)
                if (next_pump[d] < next_pump[pd])
                    pd = d;
            Nanos t = std::min(ta, next_pump[pd]);
            if (t > end)
                break;
            if (t == ta) {
                const Arrival &a = arrivals[ai++];
                clockOf(a.gen).advanceTo(t);
                Span s(tr_, Kind::ServeOffer, static_cast<std::uint32_t>(ai));
                (void)gens_[a.gen]->offer(a.tenant, t);
                continue;
            }
            clockOf(pd).advanceTo(t);
            {
                Span s(tr_, Kind::ServePump);
                gens_[pd]->pump(t);
            }
            next_pump[pd] += pump_interval;
        }
        // Offered load stops at the horizon; drain what was admitted.
        for (std::size_t d = 0; d < devices_; ++d) {
            for (std::size_t guard = 0;; ++guard) {
                std::size_t left = 0;
                for (const serve::Tenant &tn : gens_[d]->tenantStates())
                    left += tn.queue.size();
                if (left == 0)
                    break;
                if (guard > 1000000) {
                    res.errors.push_back("fleet_serve: drain stuck");
                    break;
                }
                Clock &c = clockOf(d);
                next_pump[d] = std::max(next_pump[d], c.now()) + pump_interval;
                c.advanceTo(next_pump[d]);
                Span s(tr_, Kind::ServePump);
                gens_[d]->pump(next_pump[d]);
            }
            Span s(tr_, Kind::ServeDrain);
            std::size_t k = shards_.shardOf(d);
            stacks_[k].mgr->scorer()->flushAll(clockOf(d).now());
        }
    }
    res.timed_s += hostSeconds() - t0;
    if (tr_)
        tr_->setVirtualClock(nullptr);
    tot_.timed_allocs += obs::Metrics::global().shm_allocs.get() - allocs0;

    // ---- results and the §11 conservation identities ---------------
    double p50_weighted = 0.0;
    for (std::size_t d = 0; d < devices_; ++d) {
        serve::ServeSummary s = gens_[d]->summary(duration);
        if (s.arrivals != s.admits + s.bucket_rejects ||
            s.admits != s.completions + s.queue_sheds + s.failures +
                            s.queued_residual)
            res.errors.push_back("fleet_serve: generator " +
                                 std::to_string(d) +
                                 " broke request conservation");
        res.arrivals += s.arrivals;
        res.refused += s.bucket_rejects + s.queue_sheds + s.failures;
        res.completions += s.completions;
        p50_weighted += s.p50_us * static_cast<double>(s.completions);
        res.p99_us = std::max(res.p99_us, s.p99_us);
        tot_.arrivals += s.arrivals;
        tot_.admits += s.admits;
    }
    res.p50_us = perOp(p50_weighted, static_cast<double>(res.completions));
    res.fail_ratio = perOp(static_cast<double>(res.refused),
                           static_cast<double>(res.arrivals));
    if (verify_batches > 0)
        for (std::size_t d = 0; d < devices_; ++d)
            if (dev_vectors_[d] == 0)
                res.errors.push_back("fleet_serve: device " +
                                     std::to_string(d) + " scored no work");
    for (const Sample &s : samples_)
        if (model_.classify(s.x) != s.cls)
            res.errors.push_back(
                "fleet_serve: GPU scores differ from the host model");
}

void
FleetRun::collect(bool nominal)
{
    Totals &tot = tot_;
    std::size_t highwater = 0;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        remote::LakeShard &sh = shards_.shard(k);
        tot.calls += sh.lib().calls();
        tot.commands += sh.daemon().commandsHandled();
        tot.doorbells += sh.lib().doorbells();
        tot.batches_flushed += sh.lib().batchesFlushed();
        tot.bytes_marshalled += sh.lib().bytesMarshalled();
        tot.faults += sh.lib().faultsSeen();
        tot.retries += sh.lib().retries();
        tot.messages += sh.channel().messagesSent();
        tot.channel_bytes += sh.channel().bytesSent();
        highwater += sh.arena().highwater();
        registry::ScoreServer *srv = stacks_[k].mgr->scorer();
        tot.flushes += srv->flushes();
        tot.submitted += srv->submitted();
        tot.shed += srv->shed();
    }
    tot.shm_highwater = std::max(tot.shm_highwater, highwater);
    Nanos span = shards_.makespan();
    for (std::size_t d = 0; d < devices_; ++d) {
        tot.launches += fleet_.at(d).launches();
        if (nominal)
            tot.util.push_back(fleet_.at(d).utilization(span, span));
    }
}

class FleetServe final : public Workload
{
  public:
    explicit FleetServe(const Params &p)
        : p_(p), model_([&p] {
              Rng rng(p.u64("model_seed"));
              return ml::Mlp(ml::MlpConfig::linnos(), rng);
          }())
    {}

    RepOutput rep(std::uint64_t seed, Tracer *tr) override;

  private:
    /** Draws one phase's arrivals and features from @p seed. */
    void inputs(std::uint64_t seed, double rate, Nanos duration,
                std::vector<Arrival> &arrivals,
                std::vector<Features> &features) const;

    /** Boots a fleet, runs one phase, folds counters into @p tot. */
    PhaseResult phase(std::uint64_t seed, double rate, Nanos duration,
                      bool nominal, Tracer *tr, Totals &tot);

    Params p_;
    ml::Mlp model_;
};

void
FleetServe::inputs(std::uint64_t seed, double rate, Nanos duration,
                   std::vector<Arrival> &arrivals,
                   std::vector<Features> &features) const
{
    const std::size_t tenants = p_.count("tenants");
    const std::size_t devices = p_.count("devices");
    const std::size_t per_dev = tenants / devices;
    // Per-tenant Poisson processes at rate/tenants, merged in time
    // order (ties: generator, then tenant).
    Rng rng(seed * 0x9e3779b97f4a7c15ull +
            static_cast<std::uint64_t>(std::llround(rate)));
    const double mean_gap_ns = 1e9 * static_cast<double>(tenants) / rate;
    arrivals.clear();
    for (std::size_t t = 0; t < tenants; ++t) {
        Nanos at = 0;
        for (;;) {
            at += static_cast<Nanos>(rng.exponential(mean_gap_ns));
            if (at > duration)
                break;
            arrivals.push_back(
                Arrival{at, static_cast<std::uint32_t>(t / per_dev),
                        static_cast<std::uint32_t>(t % per_dev)});
        }
    }
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival &a, const Arrival &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.gen != b.gen)
                      return a.gen < b.gen;
                  return a.tenant < b.tenant;
              });
    features.resize(arrivals.size() + devices);
    for (Features &f : features) {
        f.pend = static_cast<std::uint32_t>(rng.uniformInt(0, 31));
        for (std::uint32_t &l : f.lat)
            l = static_cast<std::uint32_t>(rng.uniformInt(50, 2000));
    }
}

PhaseResult
FleetServe::phase(std::uint64_t seed, double rate, Nanos duration,
                  bool nominal, Tracer *tr, Totals &tot)
{
    PhaseResult res;
    res.rate = rate;
    double t0 = hostSeconds();
    std::vector<Arrival> arrivals;
    std::vector<Features> features;
    inputs(seed, rate, duration, arrivals, features);
    double model_s = tot.model_s;
    double t_boot = hostSeconds();
    auto run = std::make_unique<FleetRun>(p_, model_, tr, tot);
    tot.boot_s += hostSeconds() - t_boot - (tot.model_s - model_s);
    res.setup_s = hostSeconds() - t0;
    run->run(arrivals, features, duration,
             nominal ? p_.u64("verify_batches") : 0, res);
    run->collect(nominal);
    return res;
}

RepOutput
FleetServe::rep(std::uint64_t seed, Tracer *tr)
{
    RepOutput out;
    auto &metrics = obs::Metrics::global();
    metrics.setEnabled(tr != nullptr);
    if (tr)
        metrics.reset();

    Totals tot;
    const Nanos nominal_ns =
        static_cast<Nanos>(p_.num("nominal_ms") * 1e6);
    PhaseResult nom = phase(seed, p_.num("nominal_vps"), nominal_ns,
                            /*nominal=*/true, tr, tot);
    out.errors = nom.errors;
    // Every phase boots its own fleet; set-up is the median boot.
    std::vector<double> setups{nom.setup_s};
    out.attempted = nom.arrivals;
    out.failed = nom.refused;

    // Capacity search: bisection over offered rate, every probe on a
    // fresh fleet with its own inputs. The SLO limits are fixed inputs.
    const Nanos probe_ns = static_cast<Nanos>(p_.num("probe_ms") * 1e6);
    const double slo_p99 = p_.num("slo_p99_us");
    const double slo_fail = p_.num("slo_fail_ratio");
    auto meets = [&](const PhaseResult &r) {
        return r.p99_us <= slo_p99 && r.fail_ratio <= slo_fail;
    };
    double lo = p_.num("search_lo_vps"), hi = p_.num("search_hi_vps");
    std::size_t probes = 0;
    auto probe = [&](double rate) {
        PhaseResult r = phase(seed + 1 + probes++, rate, probe_ns,
                              /*nominal=*/false, tr, tot);
        setups.push_back(r.setup_s);
        for (const std::string &e : r.errors)
            out.errors.push_back(e);
        return meets(r);
    };
    if (!probe(lo))
        out.errors.push_back("fleet_serve: the search floor misses the SLO");
    if (probe(hi))
        out.errors.push_back("fleet_serve: the search ceiling meets the SLO");
    for (std::size_t i = 0; i < p_.count("search_steps"); ++i) {
        double mid = 0.5 * (lo + hi);
        (probe(mid) ? lo : hi) = mid;
    }
    std::sort(setups.begin(), setups.end());
    out.setup_s = setups[setups.size() / 2];

    // Host throughput is timed on the nominal phase alone: its work is the
    // same for every seed, while the search path depends on the seed.
    out.ops = static_cast<double>(nom.completions);
    out.timed_s = nom.timed_s;
    const double vectors =
        static_cast<double>(tot.gpu_vectors + tot.cpu_vectors);
    // The generators keep their latency populations to themselves, so
    // the round reports its percentiles instead of raw samples.
    out.v["v_lat_p50_us"] = nom.p50_us;
    out.v["v_lat_p99_us"] = nom.p99_us;
    out.v["lat_samples"] = static_cast<double>(nom.completions);
    out.v["slo_vps"] = lo;
    out.v_ops = lo;
    out.v_seconds = 1.0;

    auto &L = out.layer;
    L["core.boot_host_ms"] = tot.boot_s * 1e3 / static_cast<double>(probes + 1);
    L["core.model_setup_host_ms"] =
        tot.model_s * 1e3 / static_cast<double>(probes + 1);
    L["registry.batch_mean"] = perOp(vectors, static_cast<double>(tot.flushes));
    L["registry.shed_ratio"] = perOp(static_cast<double>(tot.shed),
                                     static_cast<double>(tot.submitted));
    L["policy.decisions"] = static_cast<double>(tot.decisions);
    L["policy.gpu_ratio"] = perOp(static_cast<double>(tot.gpu_decisions),
                                  static_cast<double>(tot.decisions));
    L["serve.admit_ratio"] = perOp(static_cast<double>(tot.admits),
                                   static_cast<double>(tot.arrivals));
    L["ml.cpu_fallbacks"] = static_cast<double>(tot.fallbacks);
    L["remote.calls_per_op"] = perOp(static_cast<double>(tot.calls), vectors);
    L["remote.daemon_commands_per_op"] =
        perOp(static_cast<double>(tot.commands), vectors);
    L["remote.doorbells_per_op"] =
        perOp(static_cast<double>(tot.doorbells), vectors);
    L["remote.batches_flushed"] = static_cast<double>(tot.batches_flushed);
    L["remote.bytes_marshalled"] = static_cast<double>(tot.bytes_marshalled);
    L["remote.faults"] = static_cast<double>(tot.faults);
    L["remote.retries"] = static_cast<double>(tot.retries);
    L["channel.messages_per_op"] =
        perOp(static_cast<double>(tot.messages), vectors);
    L["channel.bytes_per_op"] =
        perOp(static_cast<double>(tot.channel_bytes), vectors);
    L["gpu.launches"] = static_cast<double>(tot.launches);
    double umin = 0.0, umax = 0.0, usum = 0.0;
    for (std::size_t d = 0; d < tot.util.size(); ++d) {
        umin = d == 0 ? tot.util[d] : std::min(umin, tot.util[d]);
        umax = d == 0 ? tot.util[d] : std::max(umax, tot.util[d]);
        usum += tot.util[d];
    }
    L["gpu.util_pct_mean"] = perOp(usum, static_cast<double>(tot.util.size()));
    L["gpu.util_pct_spread"] = umax - umin;
    L["shm.highwater_bytes"] = static_cast<double>(tot.shm_highwater);

    if (tr) {
        // Queue wait comes from the library's own histogram (submit ->
        // scored, virtual ns), read at bucket resolution.
        const obs::Histogram &h = metrics.reg_score_queue_ns;
        std::uint64_t target = (h.count() * 99 + 99) / 100, seen = 0;
        double p99 = 0.0;
        for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
            seen += h.bucketCount(i);
            if (seen >= target && h.count() > 0) {
                p99 = static_cast<double>(
                          std::min(h.max(), 2 * obs::Histogram::bucketLo(i))) /
                      1e3;
                break;
            }
        }
        L["registry.queue_wait_v_us_p99"] = p99;
        L["shm.allocs_per_op"] =
            perOp(static_cast<double>(tot.timed_allocs), vectors);
        const KindStat &offer = tr->stat(Kind::ServeOffer);
        L["serve.offer_host_ns"] = perOp(static_cast<double>(offer.total_host),
                                         static_cast<double>(offer.count));
        const KindStat &pump = tr->stat(Kind::ServePump);
        L["serve.pump_self_host_ns"] = perOp(
            static_cast<double>(pump.self_host), static_cast<double>(pump.count));
        addLayerShares(*tr, vectors, L);
        metrics.setEnabled(false);
    }
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeFleetServe(const Params &p)
{
    return std::make_unique<FleetServe>(p);
}

} // namespace lake::perfbench
