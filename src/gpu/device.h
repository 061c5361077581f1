#ifndef LAKE_GPU_DEVICE_H
#define LAKE_GPU_DEVICE_H

/**
 * @file
 * The simulated accelerator.
 *
 * A Device owns device memory (real bytes, so kernels compute real
 * results) and two engine timelines — compute and copy — that serialize
 * work FIFO the way a GPU context does. The device never touches a
 * clock itself: callers pass "submit at time t" and receive the span
 * the work occupies, which makes the same device usable from both the
 * sequential remoting path and the discrete-event contention
 * experiments.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.h"
#include "base/time.h"
#include "gpu/spec.h"

namespace lake::gpu {

/** Device memory handle, mirroring the CUDA driver API's CUdeviceptr. */
using DevicePtr = std::uint64_t;

/** Driver-API result codes (the subset LAKE remotes). */
enum class CuResult
{
    Success = 0,
    InvalidValue,
    OutOfMemory,
    NotFound,
    InvalidContext,
    LaunchFailed,
    /**
     * The remoting transport failed (dropped, corrupted, or timed-out
     * command/response). Mirrors CUDA_ERROR_SYSTEM_NOT_READY-class
     * errors: the device may be fine, the path to it is not.
     */
    Unavailable,
};

/** Printable result name. */
const char *cuResultName(CuResult r);

/** A reserved span on one of the device engines. */
struct EngineSpan
{
    Nanos start;
    Nanos end;
};

/**
 * Simulated GPU: real memory, modeled time.
 */
class Device
{
  public:
    /**
     * Bottom of the fake device VA space. Every DevicePtr handed out
     * by memAlloc is >= this, so values below it can never name an
     * allocation — the property launchKernel uses to tell scalar
     * kernel arguments (lengths, counts, bit-cast floats) apart from
     * device pointers without a tagged argument list.
     */
    static constexpr DevicePtr kVaBase = 0x0100'0000'0000ull;

    /**
     * Width of one fleet device's VA window. Fleet device i allocates
     * out of [kVaBase + i*kVaWindow, kVaBase + (i+1)*kVaWindow), so a
     * DevicePtr names exactly one device and a foreign pointer is
     * detectable instead of silently aliasing (DESIGN.md §13).
     */
    static constexpr DevicePtr kVaWindow = 1ull << 40;

    /** @param spec performance envelope */
    explicit Device(DeviceSpec spec);

    /**
     * Fleet constructor: device @p id allocating out of the disjoint
     * half-open window [@p va_base, @p va_limit). The single-device
     * constructor above delegates here with an unbounded window so
     * existing callers are bit-identical.
     */
    Device(DeviceSpec spec, std::uint32_t id, DevicePtr va_base,
           DevicePtr va_limit);

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    /** Performance envelope. */
    const DeviceSpec &spec() const { return spec_; }

    /** Fleet index (0 for a standalone device). */
    std::uint32_t id() const { return id_; }

    /**
     * True when @p ptr falls inside this device's VA window. Scalars
     * below kVaBase are never owned; for a standalone device every
     * value >= kVaBase is (the window is unbounded above).
     */
    bool ownsVa(DevicePtr ptr) const
    {
        return ptr >= va_base_ && ptr < va_limit_;
    }

    /// @name Device memory
    /// @{

    /** Allocates @p bytes of device memory. */
    CuResult memAlloc(DevicePtr *out, std::size_t bytes);

    /** Frees an allocation made by memAlloc. */
    CuResult memFree(DevicePtr ptr);

    /**
     * Resolves a device pointer (possibly interior) to host-visible
     * storage with at least @p bytes available, for writing: the
     * allocation's generation moves on, so its resident object (see
     * resident()) is rebuilt before the next launch reads it. HtoD
     * copies and kernel bodies' outputs resolve here.
     * @return nullptr when the range is not covered by an allocation.
     */
    void *resolve(DevicePtr ptr, std::size_t bytes);
    /** Read-only resolve: DtoH copies and kernel inputs. Leaves the
     *  generation alone. */
    const void *resolve(DevicePtr ptr, std::size_t bytes) const;

    /**
     * A decoded form of an allocation's bytes that a kernel keeps
     * device-side between launches: lakeLib uploads a model once and
     * then launches against it, so its kernel decodes the blob once
     * per upload, not once per launch.
     */
    class Resident
    {
      public:
        virtual ~Resident() = default;
    };

    /**
     * The resident @p T decoded from the bytes at @p ptr. A launch
     * reuses it while its allocation is unwritten; the first launch,
     * and the first after a write into the allocation (a mutable
     * resolve()), a launch from another @p ptr in it or one asking for
     * another type, runs @p build(bytes, avail) on the bytes from
     * @p ptr to the allocation's end and keeps its result. memFree()
     * drops it. @p build returns a std::unique_ptr<T>, null for a
     * malformed blob.
     * @return nullptr when no allocation covers @p ptr or @p build
     *         fails
     */
    template <class T, class Build>
    T *
    resident(DevicePtr ptr, Build &&build)
    {
        std::size_t off = 0;
        Allocation *a = covering(ptr, 1, &off);
        if (a == nullptr)
            return nullptr;
        if (a->resident_gen == a->gen && a->resident_at == ptr)
            if (T *hit = dynamic_cast<T *>(a->resident.get()))
                return hit;
        std::unique_ptr<T> fresh = build(
            static_cast<const std::uint8_t *>(a->bytes.data() + off),
            a->bytes.size() - off);
        T *out = fresh.get();
        a->resident = std::move(fresh);
        a->resident_gen = a->gen;
        a->resident_at = ptr;
        ++resident_builds_;
        return out;
    }

    /** resident() decodes run since creation (hits excluded). */
    std::uint64_t residentBuilds() const { return resident_builds_; }

    /** Live resident objects (tests). */
    std::size_t residentCount() const;

    /**
     * Base pointer of the live allocation containing @p ptr (possibly
     * interior); 0 when no allocation covers it. Lets the context
     * attribute per-stream work to whole allocations.
     */
    DevicePtr baseOf(DevicePtr ptr) const;

    /** Bytes currently allocated. */
    std::size_t memUsed() const { return mem_used_; }

    /// @}
    /// @name Timing models
    /// @{

    /** Modeled duration of one host<->device DMA of @p bytes. */
    Nanos transferTime(std::size_t bytes) const;

    /**
     * Modeled duration of a kernel doing @p flops floating-point work
     * over @p bytes_touched of device memory (roofline: whichever of
     * compute or memory is the bottleneck), excluding launch overhead.
     */
    Nanos computeTime(double flops, std::size_t bytes_touched) const;

    /// @}
    /// @name Engine timelines
    /// @{

    /**
     * Reserves the compute engine for @p duration, starting no earlier
     * than @p at; work queues FIFO behind in-flight kernels.
     */
    EngineSpan reserveCompute(Nanos at, Nanos duration);

    /** Same as reserveCompute but for the DMA engine. */
    EngineSpan reserveCopy(Nanos at, Nanos duration);

    /** Time the compute engine next becomes free (>= @p now). */
    Nanos computeReadyAt(Nanos now) const;

    /**
     * Percent of [now-window, now] the compute engine was busy —
     * the signal the NVML shim reports to contention policies.
     */
    double utilization(Nanos now, Nanos window) const;

    /** Busy-span history of the compute engine. */
    const BusyTracker &computeBusy() const { return compute_busy_; }

    /** Busy-span history of the DMA engine. */
    const BusyTracker &copyBusy() const { return copy_busy_; }

    /// @}

    /** Kernel launches since creation. */
    std::uint64_t launches() const { return launches_; }
    /** Marks one launch (called by the context). */
    void countLaunch() { ++launches_; }

  private:
    /** One live allocation and its resident object. */
    struct Allocation
    {
        std::vector<std::uint8_t> bytes;
        /** Bumped by every mutable resolve() into the allocation. */
        std::uint64_t gen = 0;
        /** resident()'s object; stale unless resident_gen == gen. */
        std::unique_ptr<Resident> resident;
        std::uint64_t resident_gen = 0;
        DevicePtr resident_at = 0;
    };

    /**
     * The allocation holding @p bytes from @p ptr, and @p ptr's offset
     * from its base in *@p off; nullptr when no single allocation
     * covers that range or @p ptr is foreign.
     */
    Allocation *covering(DevicePtr ptr, std::size_t bytes,
                         std::size_t *off) const;

    DeviceSpec spec_;
    std::uint32_t id_ = 0;
    DevicePtr va_base_ = kVaBase;
    DevicePtr va_limit_ = ~DevicePtr{0};

    /** Live allocations keyed by base pointer. */
    std::map<DevicePtr, Allocation> allocs_;
    DevicePtr next_ptr_ = kVaBase;
    std::size_t mem_used_ = 0;

    Nanos compute_busy_until_ = 0;
    Nanos copy_busy_until_ = 0;
    BusyTracker compute_busy_;
    BusyTracker copy_busy_;
    std::uint64_t launches_ = 0;
    std::uint64_t resident_builds_ = 0;
};

} // namespace lake::gpu

#endif // LAKE_GPU_DEVICE_H
