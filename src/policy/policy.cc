#include "policy/policy.h"

#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lake::policy {
namespace {

/** Shared decision bookkeeping for every policy flavour. */
void
observeDecision(const char *policy, const PolicyInput &in, Engine out,
                std::uint64_t util_permille, bool have_util)
{
    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        (out == Engine::Gpu ? m.policy_decide_gpu : m.policy_decide_cpu).add();
        if (have_util)
            m.policy_util_permille.record(util_permille);
    }
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Runtime, "policy", policy, in.now, obs::kNoId,
                   out == Engine::Gpu ? "gpu" : "cpu", 1,
                   have_util ? "util_permille" : nullptr, util_permille);
}

} // namespace

const char *
engineName(Engine e)
{
    return e == Engine::Cpu ? "CPU" : "GPU";
}

std::size_t
crossover(std::span<const std::size_t> grid,
          const std::function<EngineCosts(std::size_t)> &cost)
{
    for (std::size_t point : grid) {
        EngineCosts c = cost(point);
        if (c.gpu < c.cpu)
            return point;
    }
    return 0;
}

BatchThresholdPolicy::BatchThresholdPolicy(std::size_t batch_threshold)
    : batch_threshold_(batch_threshold)
{
}

Engine
BatchThresholdPolicy::decide(const PolicyInput &in)
{
    Engine out = in.batch_size >= batch_threshold_ ? Engine::Gpu : Engine::Cpu;
    observeDecision("policy.batch_threshold", in, out, 0, false);
    return out;
}

FallbackPolicy::FallbackPolicy(std::unique_ptr<ExecPolicy> inner,
                               Predicate degraded, Notify on_fallback)
    : inner_(std::move(inner)), degraded_(std::move(degraded)),
      on_fallback_(std::move(on_fallback))
{
    LAKE_ASSERT(inner_ != nullptr, "fallback policy needs an inner policy");
    LAKE_ASSERT(degraded_ != nullptr, "fallback policy needs a predicate");
}

Engine
FallbackPolicy::decide(const PolicyInput &in)
{
    // Consult the health probe first: while degraded, skip the inner
    // policy entirely — a FleetPlacementPolicy would otherwise issue
    // remoted NVML probes over the very path that is failing.
    if (degraded_()) {
        std::uint64_t overrides =
            overrides_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (on_fallback_)
            on_fallback_();
        auto &m = obs::Metrics::global();
        if (m.enabled())
            m.policy_fallback_overrides.add();
        auto &tr = obs::Tracer::global();
        if (tr.enabled())
            tr.instant(obs::Side::Runtime, "policy", "policy.fallback_cpu",
                       in.now, obs::kNoId, "overrides", overrides);
        return Engine::Cpu;
    }
    return inner_->decide(in);
}

double
UtilSmoother::sample(const UtilProbe &probe, Nanos now,
                     const ContentionConfig &cfg)
{
    // Clamped elapsed time since the last probe: the sync scoring path
    // hands the policy a caller-supplied `now`, and two call sites
    // racing through scoreSync can consult it with non-monotone times.
    // Unclamped, `now - last_probe_` wraps to a huge unsigned value
    // and defeats both the rate limit and the staleness bound below.
    Nanos elapsed = now >= last_probe_ ? now - last_probe_ : 0;
    // A window whose readings predate a long idle gap says nothing
    // about the GPU the next burst will meet: drop it and re-probe
    // fresh rather than averaging stale contention into the decision.
    if (probed_once_ && cfg.stale_windows > 0 &&
        elapsed > cfg.stale_windows * cfg.probe_interval) {
        avg_.reset();
        probed_once_ = false;
    }
    // Rate-limit the (remoted, hence costly) NVML query.
    if (!probed_once_ || elapsed >= cfg.probe_interval) {
        double util = probe(now);
        avg_.add(util);
        last_probe_ = now;
        probed_once_ = true;
    }
    return avg_.value();
}

FleetPlacementPolicy::FleetPlacementPolicy(std::vector<UtilProbe> probes,
                                           Config config)
    : probes_(std::move(probes)), cfg_(config)
{
    LAKE_ASSERT(!probes_.empty(),
                "fleet placement needs at least one device probe");
    for (const UtilProbe &p : probes_)
        LAKE_ASSERT(p != nullptr, "fleet placement probe is null");
    smoothers_.resize(probes_.size(), UtilSmoother(cfg_.contention));
}

Placement
FleetPlacementPolicy::place(const PolicyInput &in, std::size_t sticky)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (sticky >= probes_.size())
        sticky = 0;

    auto vetoed = [&](std::size_t d) { return veto_ && veto_(d); };
    auto depthOf = [&](std::size_t d) {
        return depth_ ? depth_(d) : std::size_t{0};
    };
    auto scoreOf = [&](std::size_t d) {
        double util = smoothers_[d].sample(probes_[d], in.now, cfg_.contention);
        return util + cfg_.depth_weight * static_cast<double>(depthOf(d));
    };

    const double threshold = cfg_.contention.exec_threshold;
    bool profitable = in.batch_size >= cfg_.contention.batch_threshold;
    Placement out{Engine::Cpu, sticky};

    if (!vetoed(sticky)) {
        // Sample the sticky device first, on *every* decision — the
        // Fig. 3 probe cadence — so a one-device fleet makes exactly
        // the Fig. 3 decisions.
        double score = scoreOf(sticky);
        if (profitable && score < threshold) {
            out = {Engine::Gpu, sticky};
        } else if (profitable) {
            // Sticky device contended: hunt for the least-loaded other
            // device, accepting it only when genuinely uncontended —
            // a migration re-uploads the model, so it must buy real
            // headroom, not a marginal score difference.
            std::size_t best = sticky;
            double best_score = score;
            for (std::size_t d = 0; d < probes_.size(); ++d) {
                if (d == sticky || vetoed(d))
                    continue;
                double s = scoreOf(d);
                if (s < best_score) {
                    best = d;
                    best_score = s;
                }
            }
            if (best != sticky && best_score < threshold)
                out = {Engine::Gpu, best};
        }
    } else if (profitable) {
        // Degraded sticky shard: never probe over its failing path;
        // adopt the healthiest other device instead.
        std::size_t best = probes_.size();
        double best_score = 0.0;
        for (std::size_t d = 0; d < probes_.size(); ++d) {
            if (vetoed(d))
                continue;
            double s = scoreOf(d);
            if (best == probes_.size() || s < best_score) {
                best = d;
                best_score = s;
            }
        }
        if (best != probes_.size() && best_score < threshold)
            out = {Engine::Gpu, best};
    }

    if (out.engine == Engine::Gpu)
        last_device_.store(out.device, std::memory_order_relaxed);
    observeDecision("policy.fleet_placement", in, out.engine,
                    static_cast<std::uint64_t>(
                        smoothers_[out.device].value() * 10.0),
                    true);
    return out;
}

Engine
FleetPlacementPolicy::decide(const PolicyInput &in)
{
    return place(in, last_device_.load(std::memory_order_relaxed)).engine;
}

double
FleetPlacementPolicy::smoothedUtilization(std::size_t d)
{
    std::lock_guard<std::mutex> lock(mu_);
    return d < smoothers_.size() ? smoothers_[d].value() : 0.0;
}

} // namespace lake::policy
