#include "gpu/context.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/logging.h"
#include "obs/trace.h"

namespace lake::gpu {
namespace {

/**
 * Emits the engine reservation as a device-lane trace span. The span
 * carries the engine's own timeline ([start, end) in virtual time),
 * which may sit ahead of the caller's clock for async work.
 */
void
traceEngineSpan(const Device &dev, const char *name, const EngineSpan &span,
                std::uint64_t stream, std::uint64_t bytes_or_grid)
{
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        // The span correlation id carries the fleet device index, so a
        // multi-device export separates per-device engine lanes.
        tr.span(obs::Side::Gpu, "gpu", name, span.start,
                span.end - span.start, dev.id(), "stream", stream,
                "arg", bytes_or_grid);
}

} // namespace

GpuContext::GpuContext(Device &device, Clock &clock)
    : device_(device), clock_(clock)
{
    registerBuiltinKernels();
}

CuResult
GpuContext::memAlloc(DevicePtr *out, std::size_t bytes)
{
    chargeCall();
    return device_.memAlloc(out, bytes);
}

CuResult
GpuContext::memFree(DevicePtr ptr)
{
    chargeCall();
    owner_.erase(ptr);
    return device_.memFree(ptr);
}

void
GpuContext::noteOwner(DevicePtr ptr, StreamId stream)
{
    DevicePtr base = device_.baseOf(ptr);
    if (base != 0)
        owner_[base] = stream;
}

void
GpuContext::runDueFrees()
{
    Nanos now = clock_.now();
    for (std::size_t i = 0; i < pending_frees_.size();) {
        if (pending_frees_[i].due <= now) {
            owner_.erase(pending_frees_[i].ptr);
            device_.memFree(pending_frees_[i].ptr);
            pending_frees_[i] = pending_frees_.back();
            pending_frees_.pop_back();
        } else {
            ++i;
        }
    }
}

CuResult
GpuContext::memFreeAsync(DevicePtr ptr)
{
    chargeCall();
    if (device_.baseOf(ptr) != ptr)
        return CuResult::InvalidValue;
    // A second free of a pointer whose first free is still queued must
    // fail the way the eventual device free would — queueing a
    // duplicate would mask the double free (runDueFrees discards the
    // second InvalidValue).
    for (const PendingFree &f : pending_frees_)
        if (f.ptr == ptr)
            return CuResult::InvalidValue;
    // Order the free after the owning stream's queued work: freeing at
    // dispatch time would let a buffer pool recycle the allocation
    // while a copy is still in flight on its stream.
    auto own = owner_.find(ptr);
    Nanos due = own == owner_.end() ? 0 : streamReadyAt(own->second);
    if (due <= clock_.now()) {
        owner_.erase(ptr);
        return device_.memFree(ptr);
    }
    pending_frees_.push_back({ptr, due});
    return CuResult::Success;
}

CuResult
GpuContext::memcpyHtoD(DevicePtr dst, const void *src, std::size_t bytes)
{
    return copy(true, dst, const_cast<void *>(src), bytes, 0, true);
}

CuResult
GpuContext::memcpyDtoH(void *dst, DevicePtr src, std::size_t bytes)
{
    return copy(false, src, dst, bytes, 0, true);
}

CuResult
GpuContext::memcpyHtoDAsync(DevicePtr dst, const void *src,
                            std::size_t bytes, StreamId stream)
{
    return copy(true, dst, const_cast<void *>(src), bytes, stream, false);
}

CuResult
GpuContext::memcpyDtoHAsync(void *dst, DevicePtr src, std::size_t bytes,
                            StreamId stream)
{
    return copy(false, src, dst, bytes, stream, false);
}

CuResult
GpuContext::copy(bool to_device, DevicePtr dev, void *host,
                 std::size_t bytes, StreamId stream, bool blocking)
{
    chargeCall();
    if (!host)
        return CuResult::InvalidValue;
    // Data moves eagerly; only the completion time is modeled. An async
    // caller must not touch the host buffer until synchronize, same
    // contract as cudaMemcpyAsync with pinned memory. Only a copy
    // toward the device resolves for writing, which retires the
    // allocation's resident object.
    if (to_device) {
        void *d = device_.resolve(dev, bytes);
        if (!d)
            return CuResult::InvalidValue;
        std::memcpy(d, host, bytes);
    } else {
        const void *d = std::as_const(device_).resolve(dev, bytes);
        if (!d)
            return CuResult::InvalidValue;
        std::memcpy(host, d, bytes);
    }
    // Async copies pin the allocation to their stream so a later
    // memFreeAsync orders behind them.
    if (!blocking)
        noteOwner(dev, stream);
    // A copy serializes behind its stream's queued work; a blocking one
    // runs on the legacy default stream and returns with it complete.
    Nanos at = std::max(clock_.now(), streamReadyAt(stream));
    EngineSpan span = device_.reserveCopy(at, device_.transferTime(bytes));
    stream_ready_[stream] = span.end;
    if (blocking)
        clock_.advanceTo(span.end);
    const char *name = to_device ? (blocking ? "dma.htod" : "dma.htod_async")
                                 : (blocking ? "dma.dtoh" : "dma.dtoh_async");
    traceEngineSpan(device_, name, span, stream, bytes);
    return CuResult::Success;
}

CuResult
GpuContext::launchKernel(const LaunchConfig &cfg, StreamId stream)
{
    chargeCall();
    // Single name lookup; body, countLaunch and cost then run in the
    // same order the has()/run()/cost() sequence used, so modeled time
    // is unchanged.
    const KernelRegistry::Entry *entry =
        KernelRegistry::global().find(cfg.kernel);
    if (!entry)
        return CuResult::NotFound;

    // A pointer-ranged argument minted by another fleet device must be
    // rejected before the body touches memory: disjoint VA windows make
    // foreign pointers detectable (they used to alias silently when
    // every Device allocated from the same kVaBase).
    for (std::uint64_t a : cfg.args)
        if (a >= Device::kVaBase && !device_.ownsVa(a))
            return CuResult::InvalidValue;

    CuResult res = entry->body(device_, cfg);
    if (res != CuResult::Success)
        return res;

    device_.countLaunch();
    // Pointer args pin their allocations to this stream so a later
    // memFreeAsync orders behind the launch. The wire format carries
    // untagged 64-bit slots, so scalars are told apart by range: only
    // values inside the device VA space can name an allocation, and a
    // scalar below kVaBase must never reassign an owning stream (it
    // would mis-order a later free).
    for (std::uint64_t a : cfg.args)
        if (a >= Device::kVaBase)
            noteOwner(a, stream);
    Nanos duration =
        device_.spec().launch_overhead + entry->cost(device_, cfg);
    Nanos at = std::max(clock_.now(), streamReadyAt(stream));
    EngineSpan span = device_.reserveCompute(at, duration);
    stream_ready_[stream] = span.end;
    traceEngineSpan(device_, "kernel", span, stream, cfg.grid_x);
    return CuResult::Success;
}

CuResult
GpuContext::streamSynchronize(StreamId stream)
{
    chargeCall();
    // streamReadyAt is a pure lookup (0 for unknown ids): a sync on a
    // never-used stream must not insert into stream_ready_, or random
    // probe ids would grow the map without bound.
    clock_.advanceTo(streamReadyAt(stream));
    if (!pending_frees_.empty())
        runDueFrees();
    return CuResult::Success;
}

CuResult
GpuContext::ctxSynchronize()
{
    chargeCall();
    for (const auto &[id, ready] : stream_ready_)
        clock_.advanceTo(ready);
    if (!pending_frees_.empty())
        runDueFrees();
    return CuResult::Success;
}

Nanos
GpuContext::streamReadyAt(StreamId stream) const
{
    auto it = stream_ready_.find(stream);
    return it == stream_ready_.end() ? 0 : it->second;
}

} // namespace lake::gpu
