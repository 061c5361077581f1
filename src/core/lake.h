#ifndef LAKE_CORE_LAKE_H
#define LAKE_CORE_LAKE_H

/**
 * @file
 * The LAKE runtime: one object that boots and wires every component of
 * Fig. 2 — the shared-memory region (lakeShm), the command channel,
 * the user-space daemon (lakeD), the kernel-side stub library
 * (lakeLib), the accelerator, and the feature-registry manager.
 *
 * This is the public entry point of the library:
 *
 * @code
 *   lake::core::Lake lake;                       // boot everything
 *   auto &lib = lake.lib();                      // kernel-space view
 *   gpu::DevicePtr p;
 *   lib.cuMemAlloc(&p, 4096);                    // remoted to lakeD
 * @endcode
 */

#include <cstddef>
#include <memory>

#include "base/time.h"
#include "channel/channel.h"
#include "gpu/device.h"
#include "gpu/fleet.h"
#include "gpu/spec.h"
#include "ml/backends.h"
#include "obs/obs.h"
#include "policy/policy.h"
#include "registry/manager.h"
#include "remote/daemon.h"
#include "remote/fleet.h"
#include "remote/lakelib.h"
#include "remote/streampool.h"
#include "serve/serve.h"
#include "shm/arena.h"

namespace lake::core {

/** Boot-time configuration. */
struct LakeConfig
{
    /** Command transport (§6 picks Netlink). */
    channel::Kind channel = channel::Kind::Netlink;
    /** lakeShm region size (the paper boots with cma=128M). */
    std::size_t shm_bytes = 128ull << 20;
    /** Host CPU model (for in-kernel fallback execution). */
    gpu::CpuSpec cpu = gpu::CpuSpec::xeonGold6226R();
    /**
     * Consecutive remoting failures that latch degraded mode (CPU-only
     * policies). 0 disables degradation entirely.
     */
    std::size_t degrade_threshold = 3;
    /** Retry policy installed into lakeLib at boot. */
    remote::RetryPolicy retry;
    /**
     * Command pipelining installed into lakeLib at boot (default off:
     * one message + doorbell per command, the pre-pipelining behavior,
     * so existing virtual-time numbers are unchanged unless a caller
     * opts in).
     */
    remote::PipelineConfig pipeline;
    /**
     * Observability (tracing + metrics), default fully off. When
     * obs.trace is set the Tracer is bound to this Lake's clock so
     * clock-less instrumentation sites can timestamp their events.
     */
    obs::ObsConfig obs;
    /**
     * Async batched scoring service (DESIGN.md §7), default off: with
     * scoring.enabled false nothing is constructed and every
     * score_features_async call degrades to synchronous inline
     * scoring, so existing virtual-time numbers are unchanged unless
     * a caller opts in.
     */
    registry::ScoringConfig scoring;
    /**
     * The registries' column stores (DESIGN.md §12): every registry
     * carves its capture window from shard 0's lakeShm arena as a
     * SoaStore; soa_plane.slack sizes the spare slots that absorb
     * pinned batch views.
     */
    registry::SoaConfig soa_plane;
    /**
     * Streaming DMA orchestration (DESIGN.md §10), default off: with
     * streaming.enabled false no orchestrator is constructed, no pool
     * is carved from the arena, and every data-path number is
     * unchanged unless a caller opts in.
     */
    remote::StreamingConfig streaming;
    /**
     * Multi-tenant serving front end (DESIGN.md §11), default off.
     * When serving.enabled is true, boot brings up the scoring
     * service the generator dispatches through (using the `scoring`
     * knobs above even if scoring.enabled was left false); the
     * TrafficGenerator itself is constructed by the application once
     * its shard registries exist. While false nothing changes.
     */
    serve::ServeConfig serving;
    /**
     * The device fleet (DESIGN.md §13). Lake always boots a fleet,
     * lakeD shards over it and a FleetRouter; fleet.spec is the
     * accelerator model of every device. With fleet.enabled false
     * (the default) the fleet is one device behind one shard, which is
     * bit-identical to the classic single-device stack. When enabled,
     * fleet.devices devices in disjoint VA windows sit behind
     * fleet.shards shards, and the router's policies place work per
     * device.
     */
    gpu::FleetConfig fleet;
};

/** Remoting-health counters surfaced for tests and benches. */
struct RemoteStats
{
    /** Failed RPC attempts lakeLib observed. */
    std::uint64_t faults_seen = 0;
    /** Retry attempts lakeLib issued. */
    std::uint64_t retries = 0;
    /** Inference dispatches forced onto the CPU by degradation. */
    std::uint64_t fallbacks = 0;
    /** True once degraded mode latched. */
    bool degraded = false;
};

/**
 * A booted LAKE system: a device fleet, the lakeD shards fronting it
 * and the feature-registry manager. The single-lane accessors (clock,
 * arena, channel, daemon, lib, device) name shard 0 and device 0 —
 * the whole system unless config.fleet.enabled.
 */
class Lake
{
  public:
    /** Boots with the given configuration. */
    explicit Lake(LakeConfig config = LakeConfig{});

    /**
     * Unbinds the Tracer from this Lake's clock (if the config bound
     * it) and, when the config names a trace_path, writes the Chrome
     * trace there so a crashing bench still leaves its trace behind.
     */
    ~Lake();

    /** Shard 0's virtual clock, which registries and kernelCpu share. */
    Clock &clock() { return lane().clock(); }
    /** Shard 0's lakeShm arena (shared by both sides). */
    shm::ShmArena &arena() { return lane().arena(); }
    /** Device 0 of the fleet. */
    gpu::Device &device() { return fleet_.at(0); }
    /** Shard 0's command channel. */
    channel::Channel &channel() { return lane().channel(); }
    /** Shard 0's lakeD, the user-space API executor. */
    remote::LakeDaemon &daemon() { return lane().daemon(); }
    /**
     * Shard 0's lakeLib, the kernel-space stubs. When shard 0 fronts
     * several devices, activate the target under its mu() first.
     */
    remote::LakeLib &lib() { return lane().lib(); }
    /** Feature registries and models (Table 1). */
    registry::RegistryManager &registries() { return registries_; }
    /** Kernel-context CPU compute model. */
    ml::KernelCpu &kernelCpu() { return kernel_cpu_; }
    /**
     * The streaming DMA orchestrator over shard 0, or nullptr when
     * config.streaming.enabled is false (the default).
     */
    remote::StreamOrchestrator *streaming() { return streaming_.get(); }
    /**
     * Configuration in force: fleet.devices and fleet.shards are the
     * booted counts (1 and 1 unless fleet.enabled).
     */
    const LakeConfig &config() const { return config_; }

    /// @name Device fleet (DESIGN.md §13)
    /// @{

    /** The device fleet. */
    gpu::DeviceFleet &fleet() { return fleet_; }
    /** The lakeD worker shards. */
    remote::ShardFleet &shardFleet() { return shards_; }
    /** The placement router. */
    remote::FleetRouter &router() { return router_; }

    /// @}

    /** Device 0's remoted NVML probe (LakeShard::utilProbe). */
    policy::UtilProbe nvmlProbe() { return lane().utilProbe(0); }

    /// @name Failure semantics (DESIGN.md §6)
    /// @{

    /**
     * True once repeated remoting failures latched shard 0's degraded
     * mode: policies wrapped by degradationGuard() pick the CPU.
     */
    bool
    degraded() const
    {
        return shards_.shard(0).health().degraded.load(
            std::memory_order_relaxed);
    }

    /**
     * Operator action: re-arms accelerator use after shard 0's remoting
     * path has been repaired (e.g. lakeD restarted).
     */
    void resetDegraded() { lane().health().reset(); }

    /** Remoting-health counters of one shard (shards latch alone). */
    RemoteStats remoteStats(std::size_t shard = 0) const;

    /**
     * Reconfigures every shard's command pipelining at runtime (pending
     * batches are flushed first: nothing is lost or reordered).
     */
    void setPipeline(remote::PipelineConfig p);

    /**
     * Wraps @p inner in a FallbackPolicy bound to shard 0's health:
     * while degraded() the wrapped policy returns Engine::Cpu and the
     * fallbacks counter grows. Drop the result into any registry via
     * registerPolicy — the Fig. 3 plumbing needs no other change.
     */
    std::unique_ptr<policy::ExecPolicy>
    degradationGuard(std::unique_ptr<policy::ExecPolicy> inner);

    /**
     * Records one classifier-level CPU fallback (a call site that
     * caught a remoting error mid-batch and finished on the CPU).
     */
    void noteFallback() { ++lane().health().fallbacks; }

    /// @}

    /**
     * Mirrors shard 0's lakeLib/lakeD counters, the streaming pool and
     * the router's per-device state into obs::Metrics. Call right
     * before exporting; a no-op while metrics are disabled.
     */
    void publishObs() const;

  private:
    /** Shard 0: the lane every single-lane accessor names. */
    remote::LakeShard &lane() { return shards_.shard(0); }

    LakeConfig config_;
    gpu::DeviceFleet fleet_;
    remote::ShardFleet shards_;
    remote::FleetRouter router_;
    registry::RegistryManager registries_;
    ml::KernelCpu kernel_cpu_;
    /**
     * Declared after shards_ so it is destroyed first: the destructor
     * drains in-flight streams through shard 0's lib and frees the
     * pool's arena carve-out.
     */
    std::unique_ptr<remote::StreamOrchestrator> streaming_;
    /** True while the global Tracer is bound to this Lake's clock. */
    bool bound_tracer_clock_ = false;
};

} // namespace lake::core

#endif // LAKE_CORE_LAKE_H
