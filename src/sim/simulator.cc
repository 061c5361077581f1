#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>

#include "base/logging.h"

namespace lake::sim {

void
Simulator::schedule(Nanos when, Callback fn)
{
    LAKE_ASSERT(when >= now_, "scheduling into the past (%llu < %llu)",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(now_));
    std::uint32_t slot;
    if (free_.empty()) {
        LAKE_ASSERT(slots_.size() < UINT32_MAX, "simulator queue full");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    } else {
        slot = free_.back();
        free_.pop_back();
        slots_[slot] = std::move(fn);
    }
    heap_.push_back(Key{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
Simulator::fireNext()
{
    // The callback may schedule new events (and reuse its own slot),
    // so it leaves the queue and the slab before it runs.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    Callback fn = std::move(slots_[key.slot]);
    free_.push_back(key.slot);
    now_ = key.when;
    ++fired_;
    fn();
}

void
Simulator::run()
{
    while (!heap_.empty())
        fireNext();
}

void
Simulator::runUntil(Nanos deadline)
{
    while (!heap_.empty() && heap_.front().when <= deadline)
        fireNext();
    if (now_ < deadline)
        now_ = deadline;
}

} // namespace lake::sim
