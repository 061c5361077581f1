// Tests for the discrete-event simulator.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "sim/simulator.h"

namespace lake::sim {
namespace {

TEST(SimulatorTest, FiresInTimeOrder)
{
    Simulator s;
    std::vector<int> order;
    s.schedule(30, [&] { order.push_back(3); });
    s.schedule(10, [&] { order.push_back(1); });
    s.schedule(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30u);
    EXPECT_EQ(s.eventsFired(), 3u);
}

TEST(SimulatorTest, FifoTieBreak)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        s.schedule(100, [&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, EventsScheduleEvents)
{
    Simulator s;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            s.scheduleIn(5, chain);
    };
    s.schedule(0, chain);
    s.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(s.now(), 45u);
}

TEST(SimulatorTest, RunUntilStopsAndAdvances)
{
    Simulator s;
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(100, [&] { ++fired; });
    s.runUntil(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), 50u);
    EXPECT_FALSE(s.idle());
    s.run();
    EXPECT_EQ(fired, 2);
}

// Events scheduled at now() from inside a callback queue behind every
// event already pending at that time, in the order they were
// scheduled, however deep the nesting.
TEST(SimulatorTest, FifoTiesForEventsScheduledAtNowFromCallbacks)
{
    Simulator s;
    std::vector<char> order;
    s.schedule(100, [&] {
        order.push_back('a');
        s.scheduleIn(0, [&] {
            order.push_back('b');
            s.schedule(s.now(), [&] { order.push_back('e'); });
        });
        s.schedule(s.now(), [&] { order.push_back('c'); });
    });
    s.schedule(100, [&] { order.push_back('d'); });
    s.schedule(101, [&] { order.push_back('f'); });
    s.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'd', 'b', 'c', 'e', 'f'}));
    EXPECT_EQ(s.now(), 101u);
}

// A million events through a queue that never holds more than ~500,
// so callback slots are recycled over and over. Whatever the
// recycling, events fire in strictly ascending (time, scheduling
// order): ties go first-scheduled-first, and nothing scheduled later
// can precede what already fired.
TEST(SimulatorTest, OrderKeptAcrossSlotReuse)
{
    Simulator s;
    Rng rng(42);
    std::uint64_t scheduled = 0;
    std::vector<std::pair<Nanos, std::uint64_t>> fired;
    fired.reserve(1000000);
    std::function<void(Nanos)> add = [&](Nanos when) {
        std::uint64_t id = scheduled++;
        s.schedule(when, [&, id] {
            fired.emplace_back(s.now(), id);
            // 0-2 follow-ups (delay 0..3, so ties are common), keeping
            // 128..512 events pending while the budget lasts.
            std::uint64_t pending = scheduled - fired.size();
            std::uint64_t follow = pending < 128   ? 2
                                   : pending > 512 ? 0
                                                   : rng.uniformInt(0, 2);
            for (std::uint64_t k = 0; k < follow && scheduled < 1000000; ++k)
                add(s.now() + rng.uniformInt(0, 3));
        });
    };
    for (int i = 0; i < 256; ++i)
        add(rng.uniformInt(0, 16));
    s.run();

    ASSERT_EQ(fired.size(), 1000000u);
    EXPECT_EQ(s.eventsFired(), 1000000u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        ASSERT_LT(fired[i - 1], fired[i]) << "event " << i;
}

TEST(SimulatorTest, RunUntilLeavesLaterEventsQueued)
{
    Simulator s;
    std::vector<Nanos> at;
    for (Nanos t : {200u, 10u, 100u, 50u, 101u})
        s.schedule(t, [&] { at.push_back(s.now()); });
    s.runUntil(100); // the deadline itself is inclusive
    EXPECT_EQ(at, (std::vector<Nanos>{10, 50, 100}));
    EXPECT_EQ(s.eventsFired(), 3u);
    EXPECT_EQ(s.now(), 100u);
    ASSERT_FALSE(s.idle());

    // A newcomer at now() still fires ahead of the queued later events.
    s.schedule(100, [&] { at.push_back(s.now()); });
    s.runUntil(150);
    EXPECT_EQ(at, (std::vector<Nanos>{10, 50, 100, 100, 101}));
    EXPECT_EQ(s.now(), 150u);
    s.run();
    EXPECT_EQ(at, (std::vector<Nanos>{10, 50, 100, 100, 101, 200}));
    EXPECT_TRUE(s.idle());
}

// A fired callback is released once it has run; callbacks still
// pending are destroyed with the simulator, never leaked.
TEST(SimulatorTest, CallbacksAreDestroyedAfterFiringAndWithTheSimulator)
{
    auto token = std::make_shared<int>(0);
    {
        Simulator s;
        s.schedule(10, [token] { ++*token; });
        for (Nanos t = 20; t < 30; ++t)
            s.schedule(t, [token] { ++*token; });
        EXPECT_EQ(token.use_count(), 12);
        s.runUntil(10);
        EXPECT_EQ(*token, 1);
        EXPECT_EQ(token.use_count(), 11);
    }
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace lake::sim
