#ifndef LAKE_SIM_SIMULATOR_H
#define LAKE_SIM_SIMULATOR_H

/**
 * @file
 * Discrete-event simulator.
 *
 * The timeline experiments (Fig. 1, Fig. 13, Fig. 15) involve genuinely
 * concurrent actors — a user-space hashing process and kernel-space
 * predictors sharing one GPU. Rather than depending on host-thread
 * scheduling (non-deterministic, machine-dependent), those experiments
 * run on this event queue: actors schedule callbacks at virtual
 * times.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "base/time.h"

namespace lake::sim {

/**
 * A deterministic event loop over virtual time.
 *
 * Events at equal times fire in scheduling order (FIFO tie-break), so a
 * run is a pure function of its inputs. The queue is a binary heap of
 * small (when, seq, slot) keys; callbacks sit in a slab of slots
 * recycled through a free list, and each is moved out of its slot to
 * fire.
 */
class Simulator
{
  public:
    using Callback = std::function<void()>;

    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current virtual time (time of the most recently fired event). */
    Nanos now() const { return now_; }

    /** Schedules @p fn at absolute time @p when (>= now). */
    void schedule(Nanos when, Callback fn);

    /** Schedules @p fn @p delay after now. */
    void scheduleIn(Nanos delay, Callback fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    /** Runs until the queue drains. */
    void run();

    /**
     * Runs events with time <= @p deadline, then advances now to the
     * deadline even if the queue still holds later events.
     */
    void runUntil(Nanos deadline);

    /** Number of events fired since construction. */
    std::uint64_t eventsFired() const { return fired_; }

    /** True when no events remain. */
    bool idle() const { return heap_.empty(); }

  private:
    /**
     * Queue entry: the firing order (when, then seq) and the slab slot
     * holding the callback. Trivially copyable and 24 bytes, so heap
     * sifts move keys, never std::functions.
     */
    struct Key
    {
        Nanos when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Pops the earliest key, frees its slot and fires its callback. */
    void fireNext();

    std::vector<Key> heap_; //!< binary min-heap under Later
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> free_; //!< unused indices into slots_
    Nanos now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t fired_ = 0;
};

} // namespace lake::sim

#endif // LAKE_SIM_SIMULATOR_H
