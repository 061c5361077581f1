#include "core/lake.h"

#include <algorithm>
#include <utility>

#include "base/logging.h"

namespace lake::core {

namespace {

/** @p c with the fleet it boots: one device and shard unless enabled. */
LakeConfig
inForce(LakeConfig c)
{
    gpu::FleetConfig &f = c.fleet;
    if (!f.enabled) {
        f.devices = 1;
        f.shards = 1;
        f.weights.clear();
    }
    f.shards = std::min(std::max<std::size_t>(1, f.shards), f.devices);
    return c;
}

} // namespace

Lake::Lake(LakeConfig config)
    : config_(inForce(std::move(config))), fleet_(config_.fleet),
      shards_(fleet_, config_.fleet.shards,
              remote::ShardParams{.channel = config_.channel,
                                  .shm_bytes = config_.shm_bytes,
                                  .degrade_threshold =
                                      config_.degrade_threshold,
                                  .retry = config_.retry,
                                  .pipeline = config_.pipeline}),
      router_(shards_, policy::FleetPlacementPolicy::Config{}),
      registries_(lane().clock(), &lane().arena(), config_.soa_plane),
      kernel_cpu_(lane().clock(), config_.cpu)
{
    obs::configure(config_.obs);
    // Bind the tracer to this system's clock while tracing is live
    // (whether the config or the LAKE_OBS_TRACE environment enabled
    // it), so clock-less instrumentation sites get real timestamps.
    bound_tracer_clock_ = obs::Tracer::global().enabled();
    if (bound_tracer_clock_)
        obs::Tracer::global().bindClock(&clock());
    if (config_.scoring.enabled) {
        Status s = registries_.enableScoring(config_.scoring);
        LAKE_ASSERT(s.isOk(), "scoring service boot failed: %s",
                    s.message().c_str());
    }
    if (config_.streaming.enabled)
        streaming_ = std::make_unique<remote::StreamOrchestrator>(
            lib(), clock(), config_.streaming);
}

Lake::~Lake()
{
    if (!bound_tracer_clock_)
        return;
    if (!config_.obs.trace_path.empty())
        obs::writeChromeTrace(config_.obs.trace_path);
    obs::Tracer::global().unbindClock();
}

void
Lake::publishObs() const
{
    if (!obs::Metrics::global().enabled())
        return;
    const remote::LakeShard &sh = shards_.shard(0);
    sh.lib().publishMetrics();
    sh.daemon().publishMetrics();
    if (streaming_)
        streaming_->publishMetrics();
    router_.publishMetrics();
}

RemoteStats
Lake::remoteStats(std::size_t shard) const
{
    const remote::LakeShard &sh = shards_.shard(shard);
    RemoteStats s;
    s.faults_seen = sh.lib().faultsSeen();
    s.retries = sh.lib().retries();
    s.fallbacks = sh.health().fallbacks.load(std::memory_order_relaxed);
    s.degraded = sh.health().degraded.load(std::memory_order_relaxed);
    return s;
}

void
Lake::setPipeline(remote::PipelineConfig p)
{
    for (std::size_t k = 0; k < shards_.size(); ++k)
        shards_.shard(k).lib().setPipeline(p);
}

std::unique_ptr<policy::ExecPolicy>
Lake::degradationGuard(std::unique_ptr<policy::ExecPolicy> inner)
{
    return std::make_unique<policy::FallbackPolicy>(
        std::move(inner), [this] { return degraded(); },
        [this] { noteFallback(); });
}

} // namespace lake::core
