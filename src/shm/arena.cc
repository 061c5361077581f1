#include "shm/arena.h"

#include "base/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lake::shm {

ShmArena::ShmArena(std::size_t capacity) : capacity_(roundUp(capacity))
{
    LAKE_ASSERT(capacity > 0, "arena capacity must be positive");
    storage_.reset(
        static_cast<std::uint8_t *>(std::calloc(capacity_ + kAlign - 1, 1)));
    LAKE_ASSERT(storage_ != nullptr, "cannot allocate a %zu-byte arena",
                capacity_);
    const auto raw = reinterpret_cast<std::uintptr_t>(storage_.get());
    region_ = storage_.get() + ((kAlign - raw % kAlign) % kAlign);
    insertFree(0, capacity_);
}

std::size_t
ShmArena::roundUp(std::size_t n)
{
    return (n + kAlign - 1) / kAlign * kAlign;
}

void
ShmArena::insertFree(ShmOffset offset, std::size_t size)
{
    auto [it, ok] = free_by_offset_.emplace(offset, size);
    (void)it;
    LAKE_ASSERT(ok, "free-block collision at shm offset %llu",
                static_cast<unsigned long long>(offset));
    free_by_size_.emplace(size, offset);
}

void
ShmArena::eraseFree(ShmOffset offset, std::size_t size)
{
    free_by_offset_.erase(offset);
    free_by_size_.erase({size, offset});
}

ShmOffset
ShmArena::alloc(std::size_t bytes)
{
    if (bytes == 0)
        bytes = 1;
    std::size_t need = roundUp(bytes);
    ShmOffset result = kNullOffset;
    std::size_t used_now = 0;
    std::size_t live_now = 0;
    std::size_t high_now = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);

        // Best fit in O(log n): the (size, offset) ordering makes the
        // first block at or past (need, 0) the smallest sufficient
        // block, lowest offset among equal sizes — the same block the
        // original linear scan over free_by_offset_ selected.
        auto best = free_by_size_.lower_bound({need, 0});
        if (best != free_by_size_.end()) {
            auto [block, offset] = *best;
            eraseFree(offset, block);
            if (block > need)
                insertFree(offset + need, block - need);

            live_.emplace(offset, need);
            used_ += need;
            if (used_ > highwater_)
                highwater_ = used_;
            result = offset;
        }
        used_now = used_;
        live_now = live_.size();
        high_now = highwater_;
    }
    // Observability outside the lock: metric updates and the trace
    // instant must not extend the critical section.
    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        if (result == kNullOffset) {
            m.shm_alloc_failures.add();
        } else {
            m.shm_allocs.add();
            m.shm_alloc_bytes.record(need);
            m.shm_used_bytes.set(used_now);
            m.shm_live_allocs.set(live_now);
            m.shm_highwater_bytes.set(high_now);
        }
    }
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Runtime, "shm",
                   result == kNullOffset ? "shm.alloc_fail" : "shm.alloc",
                   tr.now(), obs::kNoId, "bytes", need, "offset", result);
    return result;
}

void
ShmArena::free(ShmOffset offset)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = live_.find(offset);
    LAKE_ASSERT(it != live_.end(), "free of unknown shm offset %llu",
                static_cast<unsigned long long>(offset));
    std::size_t size = it->second;
    live_.erase(it);
    used_ -= size;

    // Coalesce with both neighbours before inserting, so each index
    // sees exactly one update for the merged block.
    ShmOffset start = offset;
    std::size_t len = size;

    auto next = free_by_offset_.lower_bound(offset);
    if (next != free_by_offset_.end() && offset + size == next->first) {
        len += next->second;
        eraseFree(next->first, next->second);
    }
    auto after = free_by_offset_.upper_bound(offset);
    if (after != free_by_offset_.begin()) {
        auto prev = std::prev(after);
        if (prev->first + prev->second == offset) {
            start = prev->first;
            len += prev->second;
            eraseFree(prev->first, prev->second);
        }
    }
    insertFree(start, len);
    std::size_t used_now = used_;
    std::size_t live_now = live_.size();
    lock.unlock();

    auto &m = obs::Metrics::global();
    if (m.enabled()) {
        m.shm_frees.add();
        m.shm_used_bytes.set(used_now);
        m.shm_live_allocs.set(live_now);
    }
    auto &tr = obs::Tracer::global();
    if (tr.enabled())
        tr.instant(obs::Side::Runtime, "shm", "shm.free", tr.now(),
                   obs::kNoId, "bytes", size, "offset", offset);
}

bool
ShmArena::validRange(ShmOffset offset, std::size_t bytes) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (offset >= capacity_)
        return false;
    // The candidate is the live allocation with the greatest base not
    // past the offset.
    auto it = live_.upper_bound(offset);
    if (it == live_.begin())
        return false;
    --it;
    ShmOffset base = it->first;
    std::size_t size = it->second;
    ShmOffset into = offset - base;
    if (into >= size)
        return false;
    // Subtraction form avoids overflow on attacker-chosen lengths.
    return bytes <= size - into;
}

std::size_t
ShmArena::sizeOf(ShmOffset offset) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(offset);
    return it == live_.end() ? 0 : it->second;
}

std::size_t
ShmArena::used() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return used_;
}

std::size_t
ShmArena::highwater() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return highwater_;
}

std::size_t
ShmArena::liveAllocs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return live_.size();
}

std::size_t
ShmArena::largestFree() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // The size index keeps blocks sorted, so the answer is its tail.
    return free_by_size_.empty() ? 0 : free_by_size_.rbegin()->first;
}

} // namespace lake::shm
