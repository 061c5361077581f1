#include "remote/streampool.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "base/env.h"
#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lake::remote {

void
StreamingConfig::applyEnv()
{
    // LAKE_STREAMS both selects K and flips the master switch:
    // LAKE_STREAMS=4 enables 4-way streaming, LAKE_STREAMS=0 disables.
    // A value that does not parse is ignored outright: falling back to
    // a default here would flip `enabled` on a typo.
    if (std::optional<std::size_t> n = base::envCount("LAKE_STREAMS");
        n && *n <= UINT32_MAX) {
        enabled = *n > 0;
        if (*n > 0)
            streams = static_cast<std::uint32_t>(*n);
    }
    pool_buffers = std::max<std::size_t>(
        1, base::envCount("LAKE_POOL_BUFFERS", pool_buffers));
    class_bytes = std::max<std::size_t>(
        64, base::envCount("LAKE_POOL_CLASS_BYTES", class_bytes));
}

StreamOrchestrator::StreamOrchestrator(LakeLib &lib, Clock &clock,
                                       StreamingConfig cfg)
    : lib_(lib), arena_(lib.arena()), clock_(clock), cfg_(cfg)
{
    if (cfg_.streams == 0)
        cfg_.streams = 1;
    if (cfg_.pool_buffers == 0)
        cfg_.pool_buffers = 1;
    if (cfg_.size_classes == 0)
        cfg_.size_classes = 1;
    // A class must hold at least one credit per stream. With fewer, a
    // depth-1-per-stream producer (the cipher/MLP consumers) would hit
    // a credit stall whose forced sync retires — and immediately
    // re-issues — a buffer belonging to a stream the caller has not
    // harvested yet, overwriting unread results with the next item's
    // input (the read-after-sync window never opens for that buffer).
    cfg_.pool_buffers = std::max<std::size_t>(cfg_.pool_buffers,
                                              cfg_.streams);

    // Carve the whole pool out of the arena once. These are the only
    // arena calls the orchestrator ever makes outside the destructor:
    // steady-state acquire/release just rotates the rings.
    buffers_.reserve(cfg_.size_classes * cfg_.pool_buffers);
    rings_.resize(cfg_.size_classes);
    for (std::size_t cls = 0; cls < cfg_.size_classes; ++cls) {
        std::size_t cap = cfg_.class_bytes << cls;
        Ring &ring = rings_[cls];
        ring.slots.resize(cfg_.pool_buffers, 0);
        for (std::size_t j = 0; j < cfg_.pool_buffers; ++j) {
            shm::ShmOffset off = arena_.alloc(cap);
            LAKE_ASSERT(off != shm::kNullOffset,
                        "streaming pool does not fit in lakeShm; shrink "
                        "LAKE_POOL_BUFFERS/LAKE_POOL_CLASS_BYTES");
            Buffer b;
            b.shm = off;
            b.capacity = cap;
            b.cls = static_cast<std::uint32_t>(cls);
            b.slot = static_cast<std::uint32_t>(buffers_.size());
            buffers_.push_back(b);
            ring.slots[ring.count++] = b.slot;
        }
    }
    window_start_.assign(cfg_.streams, clock_.now());

    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        m.dma_pool_buffers.set(buffers_.size());
        m.dma_pool_free.set(buffers_.size());
    }
}

StreamOrchestrator::~StreamOrchestrator()
{
    drain();
    for (const Buffer &b : buffers_)
        arena_.free(b.shm);
}

int
StreamOrchestrator::classFor(std::size_t bytes) const
{
    for (std::size_t cls = 0; cls < cfg_.size_classes; ++cls)
        if (bytes <= (cfg_.class_bytes << cls))
            return static_cast<int>(cls);
    return -1;
}

StreamOrchestrator::Buffer *
StreamOrchestrator::popFree(int cls)
{
    Ring &ring = rings_[static_cast<std::size_t>(cls)];
    LAKE_ASSERT(ring.count > 0, "popFree on empty ring");
    std::uint32_t slot = ring.slots[ring.head];
    ring.head = (ring.head + 1) % ring.slots.size();
    --ring.count;
    Buffer *b = &buffers_[slot];
    b->held = true;
    b->in_flight = false;
    b->stream = 0;
    return b;
}

void
StreamOrchestrator::pushFree(std::uint32_t slot)
{
    Buffer &b = buffers_[slot];
    Ring &ring = rings_[b.cls];
    LAKE_ASSERT(ring.count < ring.slots.size(), "ring overflow");
    ring.slots[(ring.head + ring.count) % ring.slots.size()] = slot;
    ++ring.count;
    b.held = false;
    b.in_flight = false;
    b.stream = 0;
    b.stage_seq = 0;
    ++stats_.releases;
}

StreamOrchestrator::Buffer *
StreamOrchestrator::acquire(std::size_t bytes)
{
    int cls = classFor(bytes);
    if (cls < 0) {
        ++stats_.sheds;
        return nullptr;
    }
    auto &m = obs::Metrics::global();
    while (rings_[static_cast<std::size_t>(cls)].count == 0) {
        // Credit stall: the class is fully in flight. Wait (in virtual
        // time) for the stream owning its oldest staged buffer; the
        // sync retires that stream's buffers and replenishes the ring.
        const Buffer *oldest = nullptr;
        for (const Buffer &b : buffers_)
            if (b.in_flight && b.cls == static_cast<std::uint32_t>(cls) &&
                (oldest == nullptr || b.stage_seq < oldest->stage_seq))
                oldest = &b;
        if (oldest == nullptr) {
            // Every credit is held un-staged by the caller; blocking
            // would deadlock, so shed instead.
            ++stats_.sheds;
            return nullptr;
        }
        ++stats_.credit_stalls;
        Nanos t0 = clock_.now();
        syncStream(oldest->stream);
        Nanos stalled = clock_.now() - t0;
        stats_.stalled_ns += stalled;
        if (m.enabled()) {
            m.dma_credit_stall_ns.record(stalled);
            auto &tr = obs::Tracer::global();
            if (tr.enabled())
                tr.span(obs::Side::Kernel, "dma", "dma.credit_stall", t0,
                        stalled, obs::kNoId, "class",
                        static_cast<std::uint64_t>(cls), "stream",
                        oldest->stream);
        }
    }
    ++stats_.acquires;
    Buffer *b = popFree(cls);
    updateGauge();
    return b;
}

StreamOrchestrator::Buffer *
StreamOrchestrator::tryAcquire(std::size_t bytes)
{
    int cls = classFor(bytes);
    if (cls < 0 || rings_[static_cast<std::size_t>(cls)].count == 0) {
        ++stats_.sheds;
        return nullptr;
    }
    ++stats_.acquires;
    Buffer *b = popFree(cls);
    updateGauge();
    return b;
}

void
StreamOrchestrator::release(Buffer *b)
{
    LAKE_ASSERT(b != nullptr && b->held && !b->in_flight,
                "release of a buffer that is not held (staged buffers "
                "return via syncStream)");
    pushFree(b->slot);
    updateGauge();
}

void
StreamOrchestrator::bind(Buffer *b, gpu::StreamId s)
{
    if (!b->in_flight) {
        b->in_flight = true;
        b->held = false;
        b->stage_seq = next_stage_seq_++;
        b->stream = s;
    } else {
        LAKE_ASSERT(b->stream == s,
                    "a buffer's stages must share one stream");
    }
}

Status
StreamOrchestrator::stageIn(Buffer *b, gpu::DevicePtr dst, std::size_t bytes,
                            gpu::StreamId s)
{
    if (b == nullptr || bytes > b->capacity)
        return Status(Code::InvalidArgument, "stageIn exceeds capacity");
    ++stats_.stage_ins;
    bind(b, s);
    lib_.cuMemcpyHtoDShmAsync(dst, b->shm, bytes, s);
    return Status();
}

Status
StreamOrchestrator::stageOut(Buffer *b, gpu::DevicePtr src, std::size_t bytes,
                             gpu::StreamId s)
{
    if (b == nullptr || bytes > b->capacity)
        return Status(Code::InvalidArgument, "stageOut exceeds capacity");
    ++stats_.stage_outs;
    bind(b, s);
    lib_.cuMemcpyDtoHShmAsync(b->shm, src, bytes, s);
    return Status();
}

Status
StreamOrchestrator::gatherIn(Buffer *b, gpu::DevicePtr dst,
                             const void *const *srcs,
                             const std::size_t *lens, std::size_t n,
                             gpu::StreamId s)
{
    if (b == nullptr)
        return Status(Code::InvalidArgument, "gatherIn without a buffer");
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += lens[i];
    if (total > b->capacity)
        return Status(Code::InvalidArgument, "gatherIn exceeds capacity");
    auto *out = static_cast<std::uint8_t *>(arena_.at(b->shm));
    std::size_t off = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::memcpy(out + off, srcs[i], lens[i]);
        off += lens[i];
    }
    ++stats_.gathers;
    stats_.gathered_vectors += n;
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Kernel, "dma", "dma.gather", clock_.now(),
                   obs::kNoId, "vectors", n, "bytes", total);
    return stageIn(b, dst, total, s);
}

gpu::CuResult
StreamOrchestrator::syncStream(gpu::StreamId s)
{
    ++stats_.syncs;
    Nanos t0 = clock_.now();
    gpu::CuResult r = lib_.cuStreamSynchronize(s);
    if (r != gpu::CuResult::Success)
        ++stats_.sync_failures;
    // Retire every buffer bound to this stream — even when the sync
    // itself failed. A dropped or truncated response must not leak the
    // credit: the transfer either completed daemon-side or the whole
    // transport is degraded, and in both cases holding the buffer
    // hostage only turns one fault into an eventual pool deadlock.
    for (Buffer &b : buffers_)
        if (b.in_flight && b.stream == s)
            pushFree(b.slot);
    updateGauge();

    Nanos now = clock_.now();
    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        if (s >= kStreamBase &&
            s < kStreamBase + static_cast<gpu::StreamId>(cfg_.streams)) {
            // Overlap ratio for this sync window: the share of the
            // window the caller did NOT spend blocked in this sync.
            // 1000‰ = perfect overlap (sync returned instantly).
            std::size_t idx = s - kStreamBase;
            Nanos window = now - window_start_[idx];
            Nanos blocked = now - t0;
            if (window > 0) {
                std::uint64_t permille = 1000 - 1000 * blocked / window;
                m.dma_overlap_permille.record(permille);
            }
            window_start_[idx] = now;
        }
        auto &tr = obs::Tracer::global();
        if (tr.enabled())
            tr.span(obs::Side::Kernel, "dma", "dma.sync", t0, now - t0,
                    obs::kNoId, "stream", s, "ok",
                    r == gpu::CuResult::Success ? 1 : 0);
    }
    return r;
}

gpu::CuResult
StreamOrchestrator::drain()
{
    gpu::CuResult first = gpu::CuResult::Success;
    // Streams can repeat in buffers_; sync each distinct one once.
    std::vector<gpu::StreamId> todo;
    for (const Buffer &b : buffers_)
        if (b.in_flight &&
            std::find(todo.begin(), todo.end(), b.stream) == todo.end())
            todo.push_back(b.stream);
    for (gpu::StreamId s : todo) {
        gpu::CuResult r = syncStream(s);
        if (first == gpu::CuResult::Success)
            first = r;
    }
    return first;
}

std::size_t
StreamOrchestrator::freeBuffers() const
{
    std::size_t n = 0;
    for (const Ring &ring : rings_)
        n += ring.count;
    return n;
}

void
StreamOrchestrator::updateGauge() const
{
    auto &m = obs::Metrics::global();
    if (m.enabled())
        m.dma_pool_free.set(freeBuffers());
}

void
StreamOrchestrator::publishMetrics() const
{
    auto &m = obs::Metrics::global();
    if (!m.enabled())
        return;
    // Counters mirror the always-on Stats (set, not add: publish is
    // idempotent and may be called repeatedly before export).
    m.dma_acquires.set(stats_.acquires);
    m.dma_releases.set(stats_.releases);
    m.dma_credit_stalls.set(stats_.credit_stalls);
    m.dma_sheds.set(stats_.sheds);
    m.dma_gathers.set(stats_.gathers);
    m.dma_gathered_vectors.set(stats_.gathered_vectors);
    m.dma_pool_buffers.set(buffers_.size());
    m.dma_pool_free.set(freeBuffers());
}

} // namespace lake::remote
