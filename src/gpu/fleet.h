#ifndef LAKE_GPU_FLEET_H
#define LAKE_GPU_FLEET_H

/**
 * @file
 * Multi-device backend: a fleet of simulated accelerators.
 *
 * A DeviceFleet owns N Device instances carved out of disjoint VA
 * windows (Device::kVaWindow apart), each optionally scaled by a
 * MIG-style weight fraction — a 0.5 weight halves memory capacity and
 * every throughput number while fixed overheads stay put, which is how
 * real MIG slices behave. The fleet is pure state: shard daemons and
 * the placement policy (src/remote/fleet.h, src/policy) decide who
 * talks to which device.
 *
 * core::Lake always runs on a fleet. FleetConfig.enabled == false
 * makes it a fleet of one (one device behind one shard), which is
 * bit-identical to the classic single-device stack, so no
 * virtual-time figure in the repository changes (DESIGN.md §13).
 */

#include <cstddef>
#include <memory>
#include <vector>

#include "gpu/device.h"
#include "gpu/spec.h"

namespace lake::gpu {

/** Boot-time knobs of the device fleet (LakeConfig.fleet). */
struct FleetConfig
{
    /**
     * While false, core::Lake boots one device and one shard and
     * ignores devices, shards and weights; spec still applies.
     */
    bool enabled = false;

    /** Simulated devices in the fleet. */
    std::size_t devices = 1;

    /**
     * lakeD worker shards. Shard k owns devices {i : i % shards == k};
     * must be in [1, devices].
     */
    std::size_t shards = 1;

    /** Performance envelope each device starts from. */
    DeviceSpec spec = DeviceSpec::a100();

    /**
     * MIG-style partition weights, one per device; empty means every
     * device gets the full spec. Weight w scales capacity and all
     * throughput rates by w (fixed overheads are unchanged). Values
     * are clamped to (0, 1].
     */
    std::vector<double> weights;

    /**
     * Applies LAKE_FLEET / LAKE_DEVICES / LAKE_SHARDS environment
     * overrides. Explicit opt-in, same contract as ServeConfig: a
     * default-constructed Lake never reads the environment.
     */
    void applyEnv();
};

/**
 * Scales @p spec by MIG weight @p w: capacity and sustained rates
 * multiply by w, fixed per-op overheads do not.
 */
DeviceSpec scaleSpec(DeviceSpec spec, double w);

/**
 * N devices with disjoint VA windows: device i allocates from
 * [kVaBase + i*kVaWindow, kVaBase + (i+1)*kVaWindow).
 */
class DeviceFleet
{
  public:
    explicit DeviceFleet(const FleetConfig &cfg);

    DeviceFleet(const DeviceFleet &) = delete;
    DeviceFleet &operator=(const DeviceFleet &) = delete;

    std::size_t size() const { return devices_.size(); }

    Device &at(std::size_t i) { return *devices_.at(i); }
    const Device &at(std::size_t i) const { return *devices_.at(i); }

    /** Fleet index owning @p ptr; size() when no device's window does. */
    std::size_t ownerOf(DevicePtr ptr) const;

  private:
    std::vector<std::unique_ptr<Device>> devices_;
};

} // namespace lake::gpu

#endif // LAKE_GPU_FLEET_H
