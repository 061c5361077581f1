#ifndef LAKE_REMOTE_FLEET_H
#define LAKE_REMOTE_FLEET_H

/**
 * @file
 * Sharded lakeD: K worker shards fronting an N-device fleet
 * (DESIGN.md §13).
 *
 * Each shard is a complete remoting stack — its own virtual clock,
 * lakeShm arena, command channel, daemon and lakeLib — owning the
 * device subset {i : i % shards == shard}. Shards are independent
 * failure domains: remoting health (the degraded latch and its
 * counters) lives per shard in ShardHealth, so one sick device cannot
 * force the whole fleet onto the CPU (the pre-fleet Lake-global latch
 * did exactly that).
 *
 * core::Lake owns one ShardFleet and names shard 0 as its own lane;
 * without LakeConfig::fleet.enabled that is the only shard.
 *
 * The FleetRouter extends the Fig. 3 policy across devices: one
 * UtilSmoother per device (policy::FleetPlacementPolicy), a pending
 * batch-depth signal per device, and sticky per-key placement so a
 * registry's captures keep hitting the device that holds its model.
 *
 * Lock order: policy mutex -> shard mutex (the placement policy's
 * probes lock the owning shard to issue the remoted NVML query). The
 * router's own map mutex is leaf-level and never held across either.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/time.h"
#include "channel/channel.h"
#include "gpu/fleet.h"
#include "policy/policy.h"
#include "remote/daemon.h"
#include "remote/lakelib.h"
#include "shm/arena.h"

namespace lake::remote {

/**
 * One shard's remoting-health state: the degraded latch and failure
 * counters that used to live Lake-globally. Every remoting lane is a
 * shard (core::Lake's own lane is shard 0 of its fleet), so there is
 * one latching implementation.
 */
struct ShardHealth
{
    /** Remoting failures since the last success (observer thread). */
    std::size_t consecutive_failures = 0;
    /** True once degraded mode latched. */
    std::atomic<bool> degraded{false};
    /** Inference dispatches forced onto the CPU by degradation. */
    std::atomic<std::uint64_t> fallbacks{0};

    /**
     * Failure-observer body: a success resets the streak, a failure
     * extends it and latches `degraded` at @p threshold (0 disables
     * latching). @p who names the lane in the warning log.
     */
    void observe(const Status &s, std::size_t threshold, const char *who);

    /** Operator re-arm after the path is repaired. */
    void
    reset()
    {
        consecutive_failures = 0;
        degraded.store(false, std::memory_order_relaxed);
    }
};

/** Per-shard construction knobs (a slice of core::LakeConfig). */
struct ShardParams
{
    channel::Kind channel = channel::Kind::Netlink;
    std::size_t shm_bytes = 128ull << 20;
    std::size_t degrade_threshold = 3;
    RetryPolicy retry;
    PipelineConfig pipeline;
};

/**
 * One lakeD worker shard: a full remoting stack over >= 1 devices.
 *
 * Shards own their clock — virtual time advances independently per
 * shard, and a fleet run's makespan is the max over shard clocks.
 * Callers serialize all traffic through one shard via mu(); the
 * activate() discipline then guarantees the daemon's active device
 * matches the caller's target before any command is issued.
 */
class LakeShard
{
  public:
    /**
     * @param index   shard id (diagnostics and routing)
     * @param devices devices this shard fronts, daemon-local order
     * @param params  remoting knobs
     */
    LakeShard(std::size_t index, std::vector<gpu::Device *> devices,
              const ShardParams &params);

    LakeShard(const LakeShard &) = delete;
    LakeShard &operator=(const LakeShard &) = delete;

    std::size_t index() const { return index_; }
    std::size_t deviceCount() const { return devs_.size(); }
    gpu::Device &device(std::size_t local) { return *devs_.at(local); }

    Clock &clock() { return clock_; }
    LakeLib &lib() { return lib_; }
    const LakeLib &lib() const { return lib_; }
    LakeDaemon &daemon() { return daemon_; }
    const LakeDaemon &daemon() const { return daemon_; }
    shm::ShmArena &arena() { return arena_; }
    channel::Channel &channel() { return channel_; }
    ShardHealth &health() { return health_; }
    const ShardHealth &health() const { return health_; }

    /** Serializes all lib traffic through this shard. */
    std::mutex &mu() { return mu_; }

    /**
     * Makes daemon-local device @p local the active one (caller holds
     * mu()). A no-op when it already is — single-device shards
     * therefore never emit a CuSetDevice and their wire traffic is
     * bit-identical to the pre-fleet protocol. After a failed switch
     * the daemon's active device is unknown (the request may have
     * landed even though its response was lost), so the next call
     * always re-issues the switch.
     */
    gpu::CuResult activate(std::size_t local);

    /**
     * A utilization probe for daemon-local device @p local: each call
     * locks mu(), activates the device and performs a LAKE-remoted
     * NVML query (so it really costs channel time and really observes
     * the simulated device). When the query fails the probe returns
     * the last reading it saw (initially 100%, i.e. "assume
     * contended") instead of panicking.
     */
    policy::UtilProbe utilProbe(std::size_t local);

  private:
    std::size_t index_;
    std::vector<gpu::Device *> devs_;
    Clock clock_;
    shm::ShmArena arena_;
    channel::Channel channel_;
    LakeDaemon daemon_;
    LakeLib lib_;
    ShardHealth health_;
    std::size_t degrade_threshold_;
    /** lib_active_ after a failed switch: the daemon's state is unknown. */
    static constexpr std::size_t kActiveUnknown = SIZE_MAX;
    /** Device lakeLib last activated (== daemon's active device). */
    std::size_t lib_active_ = 0;
    std::mutex mu_;
};

/**
 * The shard set over a DeviceFleet. Device i belongs to shard
 * i % shards at daemon-local index i / shards.
 */
class ShardFleet
{
  public:
    ShardFleet(gpu::DeviceFleet &fleet, std::size_t shards,
               const ShardParams &params);

    std::size_t size() const { return shards_.size(); }
    std::size_t deviceCount() const { return device_count_; }

    LakeShard &shard(std::size_t k) { return *shards_.at(k); }
    const LakeShard &shard(std::size_t k) const { return *shards_.at(k); }

    std::size_t shardOf(std::size_t device) const
    {
        return device % shards_.size();
    }
    std::size_t localIndex(std::size_t device) const
    {
        return device / shards_.size();
    }
    /** The shard fronting fleet device @p device. */
    LakeShard &shardFor(std::size_t device)
    {
        return *shards_[shardOf(device)];
    }

    /** Max over shard clocks: the fleet run's virtual wall time. */
    Nanos makespan() const;

    /** Total lakeLib commands issued across shards. */
    std::uint64_t totalCalls() const;

  private:
    std::vector<std::unique_ptr<LakeShard>> shards_;
    std::size_t device_count_;
};

/**
 * Placement routing: per-key sticky device placement driven by a
 * FleetPlacementPolicy whose probes issue real remoted NVML queries
 * through the owning shard.
 *
 * noteDispatch()/noteDone() are lock-free (relaxed atomics) so a
 * classifier running under its shard's mutex can report completions
 * without any lock-order entanglement with the policy or router maps.
 */
class FleetRouter
{
  public:
    FleetRouter(ShardFleet &fleet, policy::FleetPlacementPolicy::Config cfg);

    /**
     * The placement decision for @p key: consults the policy with
     * the key's sticky device, re-pins the key on migration.
     */
    policy::Placement placeFor(const std::string &key,
                               const policy::PolicyInput &in);

    /**
     * An ExecPolicy view of placeFor for registry @p key — drop it
     * into Registry::registerPolicy and the Fig. 3 plumbing routes
     * across the fleet with no call-site change.
     */
    std::unique_ptr<policy::ExecPolicy> policyFor(std::string key);

    /** The key's current sticky device (round-robin seeded). */
    std::size_t lastPlacement(const std::string &key);

    /** One batch of @p batch vectors dispatched to @p device. */
    void noteDispatch(std::size_t device, std::size_t batch);
    /** The dispatch completed (or failed). */
    void noteDone(std::size_t device);
    /** Dispatched-but-uncompleted batches on @p device. */
    std::size_t pendingDepth(std::size_t device) const;

    /** Sticky re-pins performed. */
    std::uint64_t migrations() const
    {
        return migrations_.load(std::memory_order_relaxed);
    }

    policy::FleetPlacementPolicy &policy() { return *policy_; }
    ShardFleet &shards() { return fleet_; }

    /**
     * Mirrors per-device state into name-keyed metrics lanes
     * ("fleet.dev<i>.util_permille", ".pending", ".launches") plus the
     * fleet_migrations counter; call right before exporting.
     */
    void publishMetrics() const;

  private:
    ShardFleet &fleet_;
    std::unique_ptr<policy::FleetPlacementPolicy> policy_;

    mutable std::mutex mu_; //!< guards keys_ / next_key_device_ (leaf)
    std::map<std::string, std::size_t> keys_;
    std::size_t next_key_device_ = 0;

    std::unique_ptr<std::atomic<std::size_t>[]> pending_;
    std::atomic<std::uint64_t> migrations_{0};
};

} // namespace lake::remote

#endif // LAKE_REMOTE_FLEET_H
