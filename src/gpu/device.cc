#include "gpu/device.h"

#include <algorithm>

#include "base/logging.h"

namespace lake::gpu {

DeviceSpec
DeviceSpec::a100()
{
    DeviceSpec s;
    s.name = "Simulated NVIDIA A100 (PCIe 4.0)";
    s.mem_capacity = 4ull << 30; // modelled slice of the 40 GiB part
    s.pcie_gbps = 24.0;
    s.transfer_overhead = 6_us;
    s.launch_overhead = 10_us;
    s.effective_gflops = 1000.0;
    s.mem_gbps = 1555.0;
    // Effective single-stream AES-GCM rate of the crypto kernel: the
    // serial GHASH chain and per-extent launch structure keep this far
    // below raw AES throughput, and it is what caps eCryptfs at the
    // ~840 MB/s plateau of Fig. 14.
    s.aes_gbps = 0.95;
    return s;
}

DeviceSpec
DeviceSpec::modest()
{
    DeviceSpec s;
    s.name = "Simulated desktop GPU (PCIe 3.0)";
    s.mem_capacity = 1ull << 30;
    s.pcie_gbps = 10.0;
    s.transfer_overhead = 12_us;
    s.launch_overhead = 18_us;
    s.effective_gflops = 250.0;
    s.mem_gbps = 320.0;
    s.aes_gbps = 0.4;
    return s;
}

CpuSpec
CpuSpec::xeonGold6226R()
{
    CpuSpec s;
    s.name = "Simulated Xeon Gold 6226R core (kernel-space float)";
    s.effective_gflops = 1.16;
    s.mem_gbps = 12.0;
    s.aes_sw_gbps = 0.145;
    s.aes_ni_gbps = 0.70;
    return s;
}

const char *
cuResultName(CuResult r)
{
    switch (r) {
      case CuResult::Success:        return "CUDA_SUCCESS";
      case CuResult::InvalidValue:   return "CUDA_ERROR_INVALID_VALUE";
      case CuResult::OutOfMemory:    return "CUDA_ERROR_OUT_OF_MEMORY";
      case CuResult::NotFound:       return "CUDA_ERROR_NOT_FOUND";
      case CuResult::InvalidContext: return "CUDA_ERROR_INVALID_CONTEXT";
      case CuResult::LaunchFailed:   return "CUDA_ERROR_LAUNCH_FAILED";
      case CuResult::Unavailable:    return "CUDA_ERROR_UNAVAILABLE";
    }
    return "CUDA_ERROR_UNKNOWN";
}

Device::Device(DeviceSpec spec)
    : Device(std::move(spec), 0, kVaBase, ~DevicePtr{0})
{
}

Device::Device(DeviceSpec spec, std::uint32_t id, DevicePtr va_base,
               DevicePtr va_limit)
    : spec_(std::move(spec)), id_(id), va_base_(va_base),
      va_limit_(va_limit), next_ptr_(va_base)
{
    LAKE_ASSERT(va_base >= kVaBase && va_limit > va_base,
                "device %u VA window [%llx, %llx) is malformed", id,
                static_cast<unsigned long long>(va_base),
                static_cast<unsigned long long>(va_limit));
}

CuResult
Device::memAlloc(DevicePtr *out, std::size_t bytes)
{
    if (out == nullptr || bytes == 0)
        return CuResult::InvalidValue;
    if (mem_used_ + bytes > spec_.mem_capacity)
        return CuResult::OutOfMemory;
    DevicePtr ptr = next_ptr_;
    // Keep allocations 256-byte aligned and non-adjacent so interior
    // pointer arithmetic bugs fault instead of silently aliasing.
    DevicePtr next = next_ptr_ + (bytes + 511) / 256 * 256;
    // Running off the end of this device's VA window would let the
    // bump allocator mint pointers that alias the next fleet device.
    if (next > va_limit_)
        return CuResult::OutOfMemory;
    next_ptr_ = next;
    allocs_.emplace(ptr, std::vector<std::uint8_t>(bytes));
    mem_used_ += bytes;
    *out = ptr;
    return CuResult::Success;
}

CuResult
Device::memFree(DevicePtr ptr)
{
    auto it = allocs_.find(ptr);
    if (it == allocs_.end())
        return CuResult::InvalidValue;
    mem_used_ -= it->second.size();
    allocs_.erase(it);
    return CuResult::Success;
}

void *
Device::resolve(DevicePtr ptr, std::size_t bytes)
{
    if (!ownsVa(ptr))
        return nullptr;
    // Find the allocation with the greatest base <= ptr.
    auto it = allocs_.upper_bound(ptr);
    if (it == allocs_.begin())
        return nullptr;
    --it;
    std::uint64_t off = ptr - it->first;
    // Written so that no untrusted length can wrap the bounds check.
    if (off > it->second.size() || bytes > it->second.size() - off)
        return nullptr;
    return it->second.data() + off;
}

const void *
Device::resolve(DevicePtr ptr, std::size_t bytes) const
{
    return const_cast<Device *>(this)->resolve(ptr, bytes);
}

DevicePtr
Device::baseOf(DevicePtr ptr) const
{
    if (!ownsVa(ptr))
        return 0;
    auto it = allocs_.upper_bound(ptr);
    if (it == allocs_.begin())
        return 0;
    --it;
    return ptr - it->first < it->second.size() ? it->first : 0;
}

Nanos
Device::transferTime(std::size_t bytes) const
{
    double ns = static_cast<double>(bytes) / spec_.pcie_gbps; // GB/s==B/ns
    return spec_.transfer_overhead + static_cast<Nanos>(ns);
}

Nanos
Device::computeTime(double flops, std::size_t bytes_touched) const
{
    double compute_ns = flops / spec_.effective_gflops; // GFLOP/s==FLOP/ns
    double memory_ns = static_cast<double>(bytes_touched) / spec_.mem_gbps;
    return static_cast<Nanos>(std::max(compute_ns, memory_ns));
}

EngineSpan
Device::reserveCompute(Nanos at, Nanos duration)
{
    Nanos start = std::max(at, compute_busy_until_);
    Nanos end = start + duration;
    compute_busy_until_ = end;
    compute_busy_.addBusy(start, end);
    return {start, end};
}

EngineSpan
Device::reserveCopy(Nanos at, Nanos duration)
{
    Nanos start = std::max(at, copy_busy_until_);
    Nanos end = start + duration;
    copy_busy_until_ = end;
    copy_busy_.addBusy(start, end);
    return {start, end};
}

Nanos
Device::computeReadyAt(Nanos now) const
{
    return std::max(now, compute_busy_until_);
}

double
Device::utilization(Nanos now, Nanos window) const
{
    return compute_busy_.utilization(now, window);
}

} // namespace lake::gpu
