#include "serve/traffic.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "registry/schema.h"

namespace lake::serve {

TrafficGenerator::TrafficGenerator(registry::RegistryManager &mgr,
                                   Clock &clock, ServeConfig cfg,
                                   std::string sys,
                                   std::vector<std::string> shards)
    : mgr_(mgr), clock_(clock), cfg_(cfg), sys_(std::move(sys)),
      shards_(std::move(shards))
{
    LAKE_ASSERT(cfg_.tenants > 0, "serving needs at least one tenant");
    LAKE_ASSERT(cfg_.queue_capacity > 0,
                "serving queue_capacity must be positive");
    LAKE_ASSERT(cfg_.drr_quantum > 0, "DRR quantum must be positive");
    LAKE_ASSERT(cfg_.pump_interval > 0, "pump interval must be positive");
    LAKE_ASSERT(!shards_.empty(), "serving needs at least one shard");
    LAKE_ASSERT(mgr_.scorer() != nullptr,
                "serving requires the scoring service (enableScoring)");
    for (const std::string &s : shards_)
        LAKE_ASSERT(mgr_.find(s, sys_) != nullptr,
                    "serving shard %s/%s does not exist", sys_.c_str(),
                    s.c_str());
    tenants_.reserve(cfg_.tenants);
    for (std::size_t t = 0; t < cfg_.tenants; ++t)
        tenants_.emplace_back(cfg_.bucket_rate, cfg_.bucket_burst);
    factory_ = [](std::size_t tenant, Nanos now) {
        registry::FeatureVector fv;
        fv.ts_begin = now;
        fv.ts_end = now;
        fv.values[registry::featureKey("tenant")] = {tenant};
        return fv;
    };
    auto &m = obs::Metrics::global();
    if (m.enabled())
        m.serve_tenants.set(cfg_.tenants);
}

TrafficGenerator::~TrafficGenerator()
{
    // Pending submissions hold callbacks that capture `this`; complete
    // them before the capture dangles. When the manager (and with it
    // the ScoreServer) dies first instead, *its* destructor flushes
    // while this object is still alive, so both orders are safe.
    if (registry::ScoreServer *server = mgr_.scorer())
        server->flushAll(clock_.now());
}

void
TrafficGenerator::setRequestFactory(RequestFactory f)
{
    LAKE_ASSERT(f != nullptr, "request factory must be callable");
    factory_ = std::move(f);
}

void
TrafficGenerator::enableSampling(Nanos interval, std::function<double()> util)
{
    LAKE_ASSERT(interval > 0, "sample interval must be positive");
    sample_interval_ = interval;
    util_probe_ = std::move(util);
}

void
TrafficGenerator::updateDepthGauge() const
{
    auto &m = obs::Metrics::global();
    if (m.enabled())
        m.serve_queue_depth.set(queued_);
}

Status
TrafficGenerator::offer(std::size_t tenant, Nanos now)
{
    LAKE_ASSERT(tenant < tenants_.size(), "tenant %zu out of range",
                tenant);
    auto &m = obs::Metrics::global();
    std::lock_guard<std::mutex> lock(mu_);
    Tenant &t = tenants_[tenant];
    ++t.arrivals;
    if (m.enabled())
        m.serve_arrivals.add();

    if (!t.bucket.tryAcquire(now)) {
        ++t.bucket_rejects;
        if (m.enabled())
            m.serve_bucket_rejects.add();
        return Status(Code::ResourceExhausted,
                      "tenant " + std::to_string(tenant) +
                          " over admission rate");
    }

    if (t.queue.size() >= cfg_.queue_capacity) {
        if (!cfg_.shed_oldest) {
            ++t.queue_sheds;
            if (m.enabled())
                m.serve_queue_sheds.add();
            return Status(Code::ResourceExhausted,
                          "tenant " + std::to_string(tenant) +
                              " queue full");
        }
        // Shed the oldest admitted request: under sustained overload
        // the queue serves fresh work instead of aging backlog.
        t.queue.pop_front();
        --queued_;
        ++t.queue_sheds;
        if (m.enabled())
            m.serve_queue_sheds.add();
    }

    t.queue.push_back(PendingRequest{now});
    ++queued_;
    ++t.admits;
    if (m.enabled()) {
        m.serve_admits.add();
        m.serve_queue_depth.set(queued_);
    }
    return Status::ok();
}

std::size_t
TrafficGenerator::pump(Nanos now)
{
    registry::ScoreServer *server = mgr_.scorer();
    LAKE_ASSERT(server != nullptr, "scoring service torn down mid-run");
    std::lock_guard<std::mutex> pumping(pump_mu_);

    // Busy gate: classifier compute charges the shared clock, so the
    // clock sitting further than max_runahead past this pump's
    // schedule slot means the server's virtual backlog exceeds the
    // dispatch window. Submitting more now would only deepen that
    // backlog unboundedly — instead hold the work in the bounded
    // tenant queues, where overload sheds (the §11 pressure path),
    // and keep polling so in-flight batches still complete.
    if (cfg_.max_runahead > 0 && clock_.now() > now &&
        clock_.now() - now > cfg_.max_runahead) {
        server->poll(clock_.now());
        return 0;
    }

    // Phase 1 (under mu_): one DRR cycle. Every tenant with queued
    // work earns a quantum of credits; each dispatches at most its
    // accumulated deficit, so a backlogged tenant catches up at the
    // same long-run rate as everyone else.
    std::vector<Dispatch> &picked = picked_;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const std::size_t n = tenants_.size();
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t idx = (rr_next_ + i) % n;
            Tenant &t = tenants_[idx];
            if (t.queue.empty()) {
                // Classic DRR: an idle tenant banks no deficit.
                t.deficit = 0;
                continue;
            }
            t.deficit += cfg_.drr_quantum;
            while (t.deficit > 0 && !t.queue.empty()) {
                picked.push_back(Dispatch{idx, t.queue.front().arrival});
                t.queue.pop_front();
                --queued_;
                --t.deficit;
            }
            if (t.queue.empty())
                t.deficit = 0;
        }
        rr_next_ = n == 0 ? 0 : (rr_next_ + 1) % n;
    }

    // Phase 2 (no lock): hand the picks to the ScoreServer. submit()
    // may flush inline, running completion callbacks — which take
    // mu_ — on this thread, so mu_ must not be held here.
    std::size_t submitted = 0;
    std::vector<std::size_t> &submitted_tenants = submitted_tenants_;
    std::vector<Dispatch> &requeue = requeue_;
    bool stalled = false;
    for (std::size_t i = 0; i < picked.size(); ++i) {
        if (stalled) {
            requeue.push_back(picked[i]);
            continue;
        }
        const Dispatch &d = picked[i];
        std::vector<registry::FeatureVector> fvs;
        fvs.push_back(factory_(d.tenant, now));
        std::size_t tenant = d.tenant;
        Nanos arrival = d.arrival;
        Status st = server->submit(
            shards_[d.tenant % shards_.size()], sys_, std::move(fvs), 0,
            [this, tenant, arrival](const registry::ScoreResult &r) {
                onScored(tenant, arrival, r);
            });
        if (st.isOk()) {
            ++submitted;
            submitted_tenants.push_back(tenant);
            continue;
        }
        if (st.code() == Code::ResourceExhausted) {
            // Downstream backpressure: put the whole tail back (their
            // shards share the coalescing group, so more submits this
            // round would bounce too) and retry after the next poll
            // frees capacity.
            requeue.push_back(d);
            stalled = true;
            continue;
        }
        // Registry gone (teardown race) or otherwise unsubmittable:
        // the request is lost, account for it.
        std::lock_guard<std::mutex> lock(mu_);
        ++tenants_[tenant].failures;
        auto &m = obs::Metrics::global();
        if (m.enabled())
            m.serve_failures.add();
    }

    if (!requeue.empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        backpressure_ += requeue.size();
        auto &m = obs::Metrics::global();
        if (m.enabled())
            m.serve_backpressure.add(requeue.size());
        // push_front in reverse pop order restores per-tenant FIFO.
        for (std::size_t i = requeue.size(); i-- > 0;) {
            tenants_[requeue[i].tenant].queue.push_front(
                PendingRequest{requeue[i].arrival});
            ++queued_;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        dispatched_ += submitted;
        for (std::size_t t : submitted_tenants)
            ++tenants_[t].dispatched;
        updateDepthGauge();
    }

    picked.clear();
    submitted_tenants.clear();
    requeue.clear();

    // Drive deadline expiry: virtual time never advances by itself.
    server->poll(std::max(now, clock_.now()));
    return submitted;
}

void
TrafficGenerator::onScored(std::size_t tenant, Nanos arrival,
                           const registry::ScoreResult &r)
{
    auto &m = obs::Metrics::global();
    std::lock_guard<std::mutex> lock(mu_);
    Tenant &t = tenants_[tenant];
    if (!r.status.isOk()) {
        // Shed by a newer submission downstream, or the registry was
        // torn down with this request in flight.
        ++t.failures;
        if (m.enabled())
            m.serve_failures.add();
        return;
    }
    ++t.completions;
    Nanos lat = r.scored >= arrival ? r.scored - arrival : 0;
    t.latency_us.add(toUs(lat));
    latency_us_.add(toUs(lat));
    if (m.enabled()) {
        m.serve_completions.add();
        m.serve_latency_ns.record(lat);
        m.serve_batch.record(r.batch);
    }
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Runtime, "serve", "serve.scored", r.scored,
                   obs::kNoId, "tenant", tenant, "latency_ns", lat);
}

void
TrafficGenerator::sample(Nanos now)
{
    ServeSample s;
    s.at = now;
    s.utilization = util_probe_ ? util_probe_() : 0.0;
    s.server_pending = mgr_.scorer()->pending();
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.queue_depth = queued_;
        for (const Tenant &t : tenants_) {
            s.admits += t.admits;
            s.completions += t.completions;
            s.sheds += t.queue_sheds + t.failures;
        }
    }
    samples_.push_back(s);
}

void
TrafficGenerator::run(Nanos duration)
{
    const Nanos start = clock_.now();
    const Nanos end = start + duration;

    // The arrival schedule: a min-heap of (time, tenant) fed either by
    // per-tenant Poisson processes (re-armed on every pop, so memory
    // stays O(tenants) no matter how long the run) or by the trace.
    using Event = std::pair<Nanos, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        arrivals;
    Rng rng(cfg_.seed);
    const double mean_gap_ns = 1e9 / cfg_.rate_rps;
    std::vector<TraceEntry> trace;
    std::size_t trace_next = 0;
    const bool traced = !cfg_.trace_path.empty();
    if (traced) {
        Status st = loadTrace(cfg_.trace_path, cfg_.tenants, trace);
        LAKE_ASSERT(st.isOk(), "serving trace rejected: %s",
                    st.toString().c_str());
    } else {
        for (std::size_t t = 0; t < cfg_.tenants; ++t)
            arrivals.push(
                {start + static_cast<Nanos>(rng.exponential(mean_gap_ns)),
                 t});
    }

    Nanos next_pump = start + cfg_.pump_interval;
    Nanos next_sample =
        sample_interval_ > 0 ? start + sample_interval_ : 0;
    for (;;) {
        Nanos ta = traced
                       ? (trace_next < trace.size()
                              ? start + trace[trace_next].at
                              : end + 1)
                       : (arrivals.empty() ? end + 1 : arrivals.top().first);
        Nanos t = std::min(ta, next_pump);
        if (sample_interval_ > 0)
            t = std::min(t, next_sample);
        if (t > end)
            break;
        // The classifier charges compute to the shared clock, so the
        // clock may already sit past this event: the arrival *time*
        // (its open-loop schedule slot) still stands for admission
        // and latency accounting, only the clock never moves back.
        clock_.advanceTo(t);
        if (sample_interval_ > 0 && t == next_sample) {
            sample(t);
            next_sample += sample_interval_;
            continue;
        }
        if (t == ta) {
            std::size_t tenant;
            if (traced) {
                tenant = trace[trace_next++].tenant;
            } else {
                tenant = arrivals.top().second;
                arrivals.pop();
                arrivals.push(
                    {ta + static_cast<Nanos>(rng.exponential(mean_gap_ns)),
                     tenant});
            }
            offer(tenant, t);
            continue;
        }
        pump(t);
        next_pump += cfg_.pump_interval;
    }

    // Offered load stops at the horizon; drain what was admitted so
    // every dispatched request completes and the percentiles cover
    // the whole population. Each drain tick advances virtual time
    // past the coalescing deadline, so poll() always makes progress.
    std::size_t guard = 0;
    for (;;) {
        std::size_t left;
        {
            std::lock_guard<std::mutex> lock(mu_);
            left = queued_;
        }
        if (left == 0)
            break;
        LAKE_ASSERT(++guard < 1000000, "serving drain did not converge");
        next_pump = std::max(next_pump, clock_.now()) + cfg_.pump_interval;
        clock_.advanceTo(next_pump);
        pump(next_pump);
    }
    mgr_.scorer()->flushAll(clock_.now());
    if (sample_interval_ > 0)
        sample(clock_.now());
}

ServeSummary
TrafficGenerator::summary(Nanos horizon) const
{
    ServeSummary s;
    std::lock_guard<std::mutex> lock(mu_);
    bool first = true;
    for (const Tenant &t : tenants_) {
        s.arrivals += t.arrivals;
        s.admits += t.admits;
        s.bucket_rejects += t.bucket_rejects;
        s.queue_sheds += t.queue_sheds;
        s.completions += t.completions;
        s.failures += t.failures;
        s.queued_residual += t.queue.size();
        double c = static_cast<double>(t.completions);
        if (first || c < s.min_tenant_completions)
            s.min_tenant_completions = c;
        if (first || c > s.max_tenant_completions)
            s.max_tenant_completions = c;
        first = false;
    }
    s.backpressure = backpressure_;
    s.dispatched = dispatched_;
    s.p50_us = latency_us_.percentile(50.0);
    s.p99_us = latency_us_.percentile(99.0);
    s.p999_us = latency_us_.percentile(99.9);
    if (horizon > 0)
        s.goodput_rps = static_cast<double>(s.completions) / toSec(horizon);
    if (s.arrivals > 0)
        s.reject_rate = static_cast<double>(s.bucket_rejects +
                                            s.queue_sheds + s.failures) /
                        static_cast<double>(s.arrivals);
    return s;
}

} // namespace lake::serve
