#include "registry/scoreserver.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "base/env.h"
#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "registry/manager.h"

namespace lake::registry {

namespace {

/**
 * The server whose flush lock this thread currently holds (callbacks
 * run under it). Lets a re-entrant submit() skip the inline flush
 * trigger — re-locking the non-recursive flush mutex would deadlock —
 * and lets scoreSync() called from a callback dispatch directly.
 */
thread_local const void *tls_flushing = nullptr;

/** Marks this thread as flushing @p s for the enclosing scope. */
class FlushScope
{
  public:
    explicit FlushScope(const void *s) : prev_(tls_flushing)
    {
        tls_flushing = s;
    }
    ~FlushScope() { tls_flushing = prev_; }

  private:
    const void *prev_;
};

} // namespace

void
ScoringConfig::applyEnv()
{
    max_batch = base::envPositiveCount("LAKE_SCORE_MAX_BATCH", max_batch);
    queue_capacity =
        base::envPositiveCount("LAKE_SCORE_QUEUE_CAP", queue_capacity);
    max_delay = base::envMicros("LAKE_SCORE_MAX_DELAY_US", max_delay);
    shed_oldest =
        base::envCount("LAKE_SCORE_SHED", shed_oldest ? 1 : 0) != 0;
}

ScoreServer::ScoreServer(RegistryManager &mgr, Clock &clock,
                         ScoringConfig cfg)
    : mgr_(mgr), clock_(clock), cfg_(cfg)
{
    LAKE_ASSERT(cfg_.max_batch > 0, "scoring max_batch must be positive");
    LAKE_ASSERT(cfg_.queue_capacity > 0,
                "scoring queue_capacity must be positive");
}

ScoreServer::~ScoreServer()
{
    flushAll(clock_.now());
}

Status
ScoreServer::submit(const std::string &name, const std::string &sys,
                    std::vector<FeatureVector> fvs, Nanos deadline,
                    ScoreCallback cb)
{
    return submitImpl(name, sys, Request{.fvs = std::move(fvs)}, deadline,
                      std::move(cb));
}

Status
ScoreServer::submitView(const std::string &name, const std::string &sys,
                        FvBatchView view, Nanos deadline, ScoreCallback cb)
{
    return submitImpl(name, sys, Request{.view = std::move(view)}, deadline,
                      std::move(cb));
}

Status
ScoreServer::submitImpl(const std::string &name, const std::string &sys,
                        Request req, Nanos deadline, ScoreCallback cb)
{
    const std::size_t n = req.size();
    if (n == 0)
        return Status(Code::InvalidArgument, "empty score batch");
    Nanos now = clock_.now();
    if (deadline == 0)
        deadline = now + cfg_.max_delay;
    req.deadline = deadline;
    req.enqueued = now;
    req.cb = std::move(cb);

    std::vector<Request> to_shed;
    bool trigger = false;
    std::size_t total_pending;
    {
        // The registry lock spans lookup *and* enqueue, so a racing
        // destroyRegistry() either runs entirely before (lookup fails)
        // or entirely after (failPending drains this request) — the
        // pointer can never dangle in the queue.
        std::unique_lock<std::mutex> rlock = mgr_.lockRegistries();
        Registry *reg = mgr_.findLocked(name, sys);
        if (reg == nullptr)
            return Status(Code::InvalidArgument,
                          "no registry " + sys + "/" + name);
        if (!reg->hasClassifier(Arch::Cpu))
            return Status(Code::InvalidArgument,
                          sys + "/" + name + " has no CPU classifier");
        req.reg = reg;

        std::lock_guard<std::mutex> lock(mu_);
        Group &g = groups_[sys];
        RegQueue &rq = g.queues[name];

        if (rq.depth + n > cfg_.queue_capacity) {
            if (!cfg_.shed_oldest || n > cfg_.queue_capacity) {
                rejected_.fetch_add(1, std::memory_order_relaxed);
                auto &m = obs::Metrics::global();
                if (m.enabled())
                    m.reg_async_rejects.add();
                return Status(Code::ResourceExhausted,
                              sys + "/" + name + " score queue full (" +
                                  std::to_string(rq.depth) + " pending)");
            }
            std::size_t victims = 0;
            while (rq.depth + n > cfg_.queue_capacity &&
                   victims < rq.q.size()) {
                Request &victim = rq.q[victims++];
                std::size_t vn = victim.size();
                rq.depth -= vn;
                g.depth -= vn;
                pending_ -= vn;
                to_shed.push_back(std::move(victim));
            }
            rq.q.erase(rq.q.begin(), rq.q.begin() + victims);
            // The victims may have established g.due; recompute the
            // earliest deadline from the survivors so poll() does not
            // flush the remaining queue against a dead deadline.
            g.due = minDueLocked(g);
        }

        rq.q.push_back(std::move(req));
        rq.depth += n;
        g.depth += n;
        pending_ += n;
        if (g.due == 0 || deadline < g.due)
            g.due = deadline;
        trigger = g.depth >= cfg_.max_batch;
        total_pending = pending_;
    }

    submitted_.fetch_add(1, std::memory_order_relaxed);
    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        m.reg_async_submits.add();
        m.reg_score_queue_depth.set(total_pending);
    }

    // Shed callbacks fire outside mu_ so they may re-submit. A shed
    // view request's pinned slots release when the victim destructs.
    if (!to_shed.empty()) {
        shed_.fetch_add(to_shed.size(), std::memory_order_relaxed);
        auto &tr = obs::Tracer::global();
        for (Request &victim : to_shed) {
            if (m.enabled())
                m.reg_async_sheds.add();
            if (tr.enabled())
                tr.instant(obs::Side::Runtime, "registry", "score.shed",
                           now, obs::kNoId, "vectors", victim.size());
            if (victim.cb) {
                ScoreResult res;
                res.status = Status(Code::ResourceExhausted,
                                    "shed by newer submission");
                res.enqueued = victim.enqueued;
                res.scored = now;
                victim.cb(res);
            }
        }
    }

    // A submit() from a score callback runs with flush_mu_ already
    // held by this thread: skip the inline trigger — the flushWhere
    // loop that invoked the callback re-scans the groups after its
    // dispatch returns and picks the new work up itself.
    if (trigger && tls_flushing != this)
        flushWhere(now, /*due_only=*/true);
    return Status::ok();
}

void
ScoreServer::drainGroupLocked(Group &g)
{
    // Name-ordered concatenation: deterministic regardless of which
    // thread's submission triggered the flush.
    for (auto &[name, rq] : g.queues) {
        for (Request &r : rq.q) {
            pending_ -= r.size();
            flush_reqs_.push_back(std::move(r));
        }
        rq.q.clear();
        rq.depth = 0;
    }
    g.depth = 0;
    g.due = 0;
}

Nanos
ScoreServer::minDueLocked(const Group &g)
{
    Nanos due = 0;
    for (const auto &[name, rq] : g.queues)
        for (const Request &r : rq.q)
            if (due == 0 || r.deadline < due)
                due = r.deadline;
    return due;
}

std::size_t
ScoreServer::flushWhere(Nanos now, bool due_only)
{
    LAKE_ASSERT(tls_flushing != this,
                "poll()/flushAll() re-entered from a score callback");
    std::lock_guard<std::mutex> flock(flush_mu_);
    FlushScope in_flush(this);
    std::size_t batches = 0;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (auto &[sys, g] : groups_) {
                if (g.depth == 0)
                    continue;
                if (due_only && g.due > now && g.depth < cfg_.max_batch)
                    continue;
                drainGroupLocked(g);
                break;
            }
            updateDepthGauge(pending_);
            if (flush_reqs_.empty())
                return batches;
        }
        dispatch(now);
        ++batches;
    }
}

std::size_t
ScoreServer::poll(Nanos now)
{
    return flushWhere(now, /*due_only=*/true);
}

std::size_t
ScoreServer::flushAll(Nanos now)
{
    return flushWhere(now, /*due_only=*/false);
}

void
ScoreServer::dispatch(Nanos now)
{
    std::vector<Request> &reqs = flush_reqs_;
    std::size_t total = 0;
    for (const Request &r : reqs)
        total += r.size();

    // The first name-ordered registry dispatches for the whole
    // subsystem: registries under one subsystem share classifier
    // semantics (the per-device registries of the case study), so its
    // policy — FallbackPolicy guard included — sees the *coalesced*
    // depth as PolicyInput::batch_size. The classifier's compute lands
    // on the ThreadPool-parallel GEMM/kNN substrate, which is where a
    // big batch beats per-call dispatch.
    // Virtual-time wrap audit: `start` is clamped to the clock, so a
    // poll(now) with a stale (smaller-than-clock) `now` cannot push
    // dispatch before an enqueue. scored >= start >= clock >= every
    // r.enqueued (the clock is monotone and stamped each enqueue), so
    // the interval subtractions below cannot wrap; the explicit clamp
    // keeps a telemetry value from turning a future regression into a
    // 2^64-scale histogram sample.
    Registry *rep = reqs.front().reg;
    Nanos start = std::max(now, clock_.now());

    // One combined view, in request order: pinned views append their
    // slots (same-store consecutive runs merge into one strided
    // MatrixView), and vector requests move their rows into one batch
    // that the view borrows range by range — so an all-vector flush is
    // one whole borrowed vector.
    std::vector<FeatureVector> &batch = flush_batch_;
    batch.reserve(total);
    FvBatchView &combined = flush_view_;
    // Request sizes are recorded first — append() steals view rows.
    std::vector<std::size_t> &sizes = flush_sizes_;
    for (Request &r : reqs) {
        sizes.push_back(r.size());
        if (r.fvs.empty()) {
            combined.append(std::move(r.view));
            continue;
        }
        std::size_t first = batch.size();
        std::move(r.fvs.begin(), r.fvs.end(), std::back_inserter(batch));
        combined.appendBorrowed(rep->soa(), batch, first, r.fvs.size());
    }
    std::vector<float> scores = rep->scoreFeatures(combined, start);
    Nanos scored = std::max(start, clock_.now());

    flushes_.fetch_add(1, std::memory_order_relaxed);
    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        m.reg_score_flushes.add();
        m.reg_score_batch.record(total);
        for (const Request &r : reqs)
            m.reg_score_queue_ns.record(
                scored >= r.enqueued ? scored - r.enqueued : 0);
    }
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.span(obs::Side::Runtime, "registry", "score.flush", start,
                scored - start, obs::kNoId, "batch", total,
                "requests", reqs.size());

    ScoreResult &res = flush_result_;
    res.status = Status::ok();
    res.scored = scored;
    res.engine = rep->lastEngine();
    res.batch = total;
    std::size_t off = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        Request &r = reqs[i];
        std::size_t rn = sizes[i];
        if (r.cb) {
            res.enqueued = r.enqueued;
            res.scores.assign(scores.begin() + off,
                              scores.begin() + off + rn);
            r.cb(res);
        }
        off += rn;
    }

    // Unpin the batch's slots and empty the buffers, keeping their
    // storage for the next flush.
    combined.recycle();
    batch.clear();
    sizes.clear();
    reqs.clear();
}

void
ScoreServer::failPending(const std::string &name, const std::string &sys)
{
    LAKE_ASSERT(tls_flushing != this,
                "destroy_registry re-entered from a score callback");
    // Taken in flush order (flush_mu_ then mu_) so no concurrent flush
    // still holds this registry's requests when the callbacks fire.
    std::lock_guard<std::mutex> flock(flush_mu_);
    FlushScope in_flush(this);
    std::vector<Request> orphaned;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto git = groups_.find(sys);
        if (git == groups_.end())
            return;
        auto qit = git->second.queues.find(name);
        if (qit == git->second.queues.end())
            return;
        orphaned = std::move(qit->second.q);
        for (const Request &r : orphaned) {
            git->second.depth -= r.size();
            pending_ -= r.size();
        }
        git->second.queues.erase(qit);
        // The erased queue may have carried the earliest deadline;
        // recompute from the surviving registries of the group.
        git->second.due = minDueLocked(git->second);
        updateDepthGauge(pending_);
    }
    Nanos now = clock_.now();
    for (Request &r : orphaned) {
        if (!r.cb)
            continue;
        ScoreResult res;
        res.status = Status(Code::Unavailable,
                            "registry " + sys + "/" + name + " destroyed");
        res.enqueued = r.enqueued;
        res.scored = now;
        r.cb(res);
    }
}

std::vector<float>
ScoreServer::scoreSync(Registry &reg, const FvBatchView &view, Nanos now)
{
    // A score callback already runs under this thread's flush lock —
    // dispatch is serialized by construction, so score directly rather
    // than self-deadlocking on the re-lock.
    if (tls_flushing == this)
        return reg.scoreFeatures(view, now);
    std::lock_guard<std::mutex> flock(flush_mu_);
    return reg.scoreFeatures(view, now);
}

std::vector<float>
ScoreServer::scoreSync(Registry &reg, const std::vector<FeatureVector> &fvs,
                       Nanos now)
{
    return scoreSync(reg, FvBatchView::borrow(reg.soa(), fvs, 0, fvs.size()),
                     now);
}

std::size_t
ScoreServer::pending() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
}

void
ScoreServer::updateDepthGauge(std::size_t total) const
{
    auto &m = obs::Metrics::global();
    if (m.enabled())
        m.reg_score_queue_depth.set(total);
}

} // namespace lake::registry
