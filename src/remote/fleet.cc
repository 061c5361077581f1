#include "remote/fleet.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"
#include "obs/metrics.h"

namespace lake::remote {

void
ShardHealth::observe(const Status &s, std::size_t threshold, const char *who)
{
    if (s.isOk()) {
        consecutive_failures = 0;
        return;
    }
    ++consecutive_failures;
    if (threshold > 0 && !degraded.load(std::memory_order_relaxed) &&
        consecutive_failures >= threshold) {
        degraded.store(true, std::memory_order_relaxed);
        warn("%s: remoting degraded after %zu consecutive failures "
             "(last: %s); policies fall back to CPU",
             who, consecutive_failures, s.message().c_str());
    }
}

LakeShard::LakeShard(std::size_t index, std::vector<gpu::Device *> devices,
                     const ShardParams &params)
    : index_(index), devs_(std::move(devices)), arena_(params.shm_bytes),
      channel_(params.channel, clock_),
      daemon_(channel_, arena_, *devs_.at(0), clock_),
      lib_(channel_, arena_, [this] { daemon_.processPending(); }),
      degrade_threshold_(params.degrade_threshold)
{
    for (std::size_t i = 1; i < devs_.size(); ++i)
        daemon_.addDevice(*devs_[i]);
    lib_.setRetryPolicy(params.retry);
    lib_.setPipeline(params.pipeline);
    lib_.setFailureObserver([this](const Status &s) {
        health_.observe(s, degrade_threshold_, "lake shard");
    });
}

gpu::CuResult
LakeShard::activate(std::size_t local)
{
    LAKE_ASSERT(local < devs_.size(),
                "shard %zu has no local device %zu", index_, local);
    if (local == lib_active_)
        return gpu::CuResult::Success;
    gpu::CuResult r = lib_.cuSetDevice(static_cast<std::uint32_t>(local));
    if (r != gpu::CuResult::Success) {
        // The daemon switches as soon as the request arrives, so a lost
        // response leaves it on a device lakeLib cannot name.
        lib_active_ = kActiveUnknown;
        return r;
    }
    lib_active_ = local;
    auto &m = obs::Metrics::global();
    if (m.enabled())
        m.fleet_setdevice.add();
    return r;
}

policy::UtilProbe
LakeShard::utilProbe(std::size_t local)
{
    // Starts pessimistic: until a query succeeds the device reads as
    // fully contended, so contention policies prefer the CPU.
    auto last = std::make_shared<double>(100.0);
    return [this, local, last](Nanos) {
        std::lock_guard<std::mutex> lock(mu_);
        if (activate(local) != gpu::CuResult::Success)
            return *last;
        RemoteUtilization util;
        if (lib_.nvmlGetUtilization(&util) == gpu::CuResult::Success)
            *last = static_cast<double>(util.gpu);
        return *last;
    };
}

ShardFleet::ShardFleet(gpu::DeviceFleet &fleet, std::size_t shards,
                       const ShardParams &params)
    : device_count_(fleet.size())
{
    LAKE_ASSERT(shards >= 1 && shards <= fleet.size(),
                "shard count %zu must be in [1, %zu]", shards, fleet.size());
    shards_.reserve(shards);
    for (std::size_t k = 0; k < shards; ++k) {
        std::vector<gpu::Device *> devs;
        for (std::size_t i = k; i < fleet.size(); i += shards)
            devs.push_back(&fleet.at(i));
        shards_.push_back(
            std::make_unique<LakeShard>(k, std::move(devs), params));
    }
}

Nanos
ShardFleet::makespan() const
{
    Nanos t = 0;
    for (const auto &s : shards_)
        t = std::max(t, s->clock().now());
    return t;
}

std::uint64_t
ShardFleet::totalCalls() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards_)
        n += s->lib().calls();
    return n;
}

namespace {

/** ExecPolicy adapter: one registry key's view of the router. */
class RouterPolicy final : public policy::ExecPolicy
{
  public:
    RouterPolicy(FleetRouter &router, std::string key)
        : router_(router), key_(std::move(key))
    {
    }

    policy::Engine
    decide(const policy::PolicyInput &in) override
    {
        return router_.placeFor(key_, in).engine;
    }

    const char *name() const override { return "fleet-router"; }

  private:
    FleetRouter &router_;
    std::string key_;
};

} // namespace

FleetRouter::FleetRouter(ShardFleet &fleet,
                         policy::FleetPlacementPolicy::Config cfg)
    : fleet_(fleet)
{
    std::vector<policy::UtilProbe> probes;
    probes.reserve(fleet_.deviceCount());
    for (std::size_t d = 0; d < fleet_.deviceCount(); ++d)
        probes.push_back(
            fleet_.shardFor(d).utilProbe(fleet_.localIndex(d)));
    policy_ = std::make_unique<policy::FleetPlacementPolicy>(
        std::move(probes), cfg);
    policy_->setDepthProbe(
        [this](std::size_t d) { return pendingDepth(d); });
    policy_->setVeto([this](std::size_t d) {
        return fleet_.shardFor(d).health().degraded.load(
            std::memory_order_relaxed);
    });
    pending_ =
        std::make_unique<std::atomic<std::size_t>[]>(fleet_.deviceCount());
    for (std::size_t d = 0; d < fleet_.deviceCount(); ++d)
        pending_[d].store(0, std::memory_order_relaxed);
}

policy::Placement
FleetRouter::placeFor(const std::string &key, const policy::PolicyInput &in)
{
    std::size_t sticky;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = keys_.find(key);
        if (it == keys_.end()) {
            // Round-robin initial stickiness spreads keys across the
            // fleet before any utilization differential exists.
            sticky = next_key_device_++ % fleet_.deviceCount();
            keys_.emplace(key, sticky);
        } else {
            sticky = it->second;
        }
    }
    // The policy takes its own mutex and its probes take shard
    // mutexes; the router map mutex is never held across this call.
    policy::Placement p = policy_->place(in, sticky);
    if (p.engine == policy::Engine::Gpu && p.device != sticky) {
        std::lock_guard<std::mutex> lock(mu_);
        keys_[key] = p.device;
        migrations_.fetch_add(1, std::memory_order_relaxed);
        auto &m = obs::Metrics::global();
        if (m.enabled())
            m.fleet_migrations.add();
    }
    return p;
}

std::unique_ptr<policy::ExecPolicy>
FleetRouter::policyFor(std::string key)
{
    return std::make_unique<RouterPolicy>(*this, std::move(key));
}

std::size_t
FleetRouter::lastPlacement(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = keys_.find(key);
    if (it != keys_.end())
        return it->second;
    std::size_t sticky = next_key_device_++ % fleet_.deviceCount();
    keys_.emplace(key, sticky);
    return sticky;
}

void
FleetRouter::noteDispatch(std::size_t device, std::size_t)
{
    pending_[device].fetch_add(1, std::memory_order_relaxed);
}

void
FleetRouter::noteDone(std::size_t device)
{
    pending_[device].fetch_sub(1, std::memory_order_relaxed);
}

std::size_t
FleetRouter::pendingDepth(std::size_t device) const
{
    return pending_[device].load(std::memory_order_relaxed);
}

void
FleetRouter::publishMetrics() const
{
    auto &m = obs::Metrics::global();
    if (!m.enabled())
        return;
    m.counter("fleet.migrations").set(migrations());
    for (std::size_t d = 0; d < fleet_.deviceCount(); ++d) {
        std::string prefix = "fleet.dev" + std::to_string(d);
        m.gauge(prefix + ".util_permille")
            .set(static_cast<std::uint64_t>(
                policy_->smoothedUtilization(d) * 10.0));
        m.gauge(prefix + ".pending").set(pendingDepth(d));
        LakeShard &shard = fleet_.shardFor(d);
        m.counter(prefix + ".launches")
            .set(shard.device(fleet_.localIndex(d)).launches());
    }
}

} // namespace lake::remote
