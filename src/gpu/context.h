#ifndef LAKE_GPU_CONTEXT_H
#define LAKE_GPU_CONTEXT_H

/**
 * @file
 * CUDA-driver-style context: the API surface lakeD calls on behalf of
 * kernel-space clients.
 *
 * Mirrors the driver-API subset the paper remotes (cuMemAlloc, cuMemFree,
 * cuMemcpyHtoD/DtoH and their async variants, cuLaunchKernel, stream
 * synchronization). Data effects happen eagerly (device memory is real);
 * durations are charged to the bound virtual clock, with async work
 * completing on per-stream timelines so copies overlap compute — the
 * distinction behind the paper's "LAKE" vs "LAKE (sync.)" series.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/time.h"
#include "gpu/device.h"
#include "gpu/kernels.h"

namespace lake::gpu {

/** Stream identifier; 0 is the default stream. */
using StreamId = std::uint32_t;

/**
 * One client's view of a device, bound to a virtual clock.
 */
class GpuContext
{
  public:
    /** Fixed cost charged for any driver API call. */
    static constexpr Nanos kDriverCallCost = 500_ns;

    /**
     * @param device shared accelerator (outlives the context)
     * @param clock  virtual clock of the calling execution context
     */
    GpuContext(Device &device, Clock &clock);

    /** Underlying device. */
    Device &device() { return device_; }
    /** Clock this context charges. */
    Clock &clock() { return clock_; }

    /// @name Memory
    /// @{

    /** cuMemAlloc. */
    CuResult memAlloc(DevicePtr *out, std::size_t bytes);
    /** cuMemFree. */
    CuResult memFree(DevicePtr ptr);

    /**
     * cuMemFreeAsync: the free is ordered *after* the owning stream's
     * queued work. An allocation still referenced by an in-flight copy
     * or launch stays live until that stream's streamReadyAt passes —
     * freeing it at dispatch time would recycle a pooled buffer while
     * its transfer is mid-flight (a virtual-time use-after-free).
     * Unknown pointers — and pointers whose first free is still queued
     * (a double async free) — fail immediately with InvalidValue.
     */
    CuResult memFreeAsync(DevicePtr ptr);

    /** Deferred frees queued behind busy streams (test visibility). */
    std::size_t pendingFrees() const { return pending_frees_.size(); }

    /** cuMemcpyHtoD (synchronous: returns with the copy complete). */
    CuResult memcpyHtoD(DevicePtr dst, const void *src, std::size_t bytes);
    /** cuMemcpyDtoH (synchronous). */
    CuResult memcpyDtoH(void *dst, DevicePtr src, std::size_t bytes);

    /** cuMemcpyHtoDAsync: completes on @p stream's timeline. */
    CuResult memcpyHtoDAsync(DevicePtr dst, const void *src,
                             std::size_t bytes, StreamId stream);
    /** cuMemcpyDtoHAsync. */
    CuResult memcpyDtoHAsync(void *dst, DevicePtr src, std::size_t bytes,
                             StreamId stream);

    /// @}
    /// @name Execution
    /// @{

    /**
     * cuLaunchKernel: runs the registered kernel body, reserves the
     * compute engine after the stream's prior work, and returns
     * asynchronously (synchronize to observe the modeled finish time).
     */
    CuResult launchKernel(const LaunchConfig &cfg, StreamId stream = 0);

    /**
     * cuStreamSynchronize: blocks (in virtual time) until the stream
     * drains. Synchronizing a never-used StreamId is a guaranteed
     * no-op: it returns Success without inserting a timeline entry, so
     * probing random stream ids cannot grow stream_ready_.
     */
    CuResult streamSynchronize(StreamId stream);

    /** cuCtxSynchronize: drains every stream. */
    CuResult ctxSynchronize();

    /// @}

    /** Completion time of the last operation queued on @p stream. */
    Nanos streamReadyAt(StreamId stream) const;

    /**
     * Streams with a timeline entry. Synchronization never adds one
     * (only queued work does), so this stays bounded by the streams
     * actually used — the satellite-2 memory-growth guarantee.
     */
    std::size_t trackedStreams() const { return stream_ready_.size(); }

  private:
    /** Charges the fixed driver-call cost and runs any due frees. */
    void
    chargeCall()
    {
        clock_.advance(kDriverCallCost);
        if (!pending_frees_.empty())
            runDueFrees();
    }

    /**
     * The one body of the four memcpy entry points: moves @p bytes
     * between @p host and device allocation @p dev (toward the device,
     * reading @p host only, when @p to_device), then reserves the copy
     * engine on @p stream's timeline. A @p blocking copy advances the
     * clock to its end.
     */
    CuResult copy(bool to_device, DevicePtr dev, void *host,
                  std::size_t bytes, StreamId stream, bool blocking);

    /** Records @p stream as the owner of the allocation under @p ptr. */
    void noteOwner(DevicePtr ptr, StreamId stream);

    /** Executes queued async frees whose owning stream has drained. */
    void runDueFrees();

    /** An async free waiting for its owning stream to drain. */
    struct PendingFree
    {
        DevicePtr ptr;
        Nanos due; //!< owning stream's streamReadyAt at queue time
    };

    Device &device_;
    Clock &clock_;
    std::unordered_map<StreamId, Nanos> stream_ready_;
    /** Last stream that touched each allocation (keyed by base). */
    std::unordered_map<DevicePtr, StreamId> owner_;
    std::vector<PendingFree> pending_frees_;
};

} // namespace lake::gpu

#endif // LAKE_GPU_CONTEXT_H
