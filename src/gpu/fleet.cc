#include "gpu/fleet.h"

#include <algorithm>

#include "base/logging.h"

namespace lake::gpu {

DeviceSpec
scaleSpec(DeviceSpec spec, double w)
{
    w = std::clamp(w, 1e-3, 1.0);
    spec.mem_capacity =
        static_cast<std::size_t>(static_cast<double>(spec.mem_capacity) * w);
    spec.pcie_gbps *= w;
    spec.effective_gflops *= w;
    spec.mem_gbps *= w;
    spec.aes_gbps *= w;
    return spec;
}

DeviceFleet::DeviceFleet(const FleetConfig &cfg)
{
    LAKE_ASSERT(cfg.devices >= 1, "fleet needs at least one device");
    LAKE_ASSERT(cfg.weights.empty() || cfg.weights.size() == cfg.devices,
                "fleet weights (%zu) must match devices (%zu)",
                cfg.weights.size(), cfg.devices);
    devices_.reserve(cfg.devices);
    for (std::size_t i = 0; i < cfg.devices; ++i) {
        DeviceSpec spec = cfg.weights.empty()
                              ? cfg.spec
                              : scaleSpec(cfg.spec, cfg.weights[i]);
        DevicePtr base = Device::kVaBase + i * Device::kVaWindow;
        devices_.push_back(std::make_unique<Device>(
            std::move(spec), static_cast<std::uint32_t>(i), base,
            base + Device::kVaWindow));
    }
}

std::size_t
DeviceFleet::ownerOf(DevicePtr ptr) const
{
    for (std::size_t i = 0; i < devices_.size(); ++i)
        if (devices_[i]->ownsVa(ptr))
            return i;
    return devices_.size();
}

} // namespace lake::gpu
