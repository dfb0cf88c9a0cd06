#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"

namespace ble::sim {
namespace {

TEST(SchedulerTest, FiresInTimeOrder) {
    Scheduler s;
    std::vector<int> order;
    (void)s.schedule_at(300, [&] { order.push_back(3); });
    (void)s.schedule_at(100, [&] { order.push_back(1); });
    (void)s.schedule_at(200, [&] { order.push_back(2); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 300);
}

TEST(SchedulerTest, SameTimestampKeepsInsertionOrder) {
    Scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        (void)s.schedule_at(42, [&order, i] { order.push_back(i); });
    }
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerTest, SameTimestampOrderSurvivesInterleavedCancels) {
    // Cancellation must not disturb the FIFO order of the surviving
    // same-timestamp events — replays depend on it.
    Scheduler s;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
        ids.push_back(s.schedule_at(42, [&order, i] { order.push_back(i); }));
    }
    s.cancel(ids[1]);
    (void)s.schedule_at(42, [&order] { order.push_back(6); });
    s.cancel(ids[4]);
    (void)s.schedule_at(42, [&order] { order.push_back(7); });
    s.cancel(ids[0]);
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 5, 6, 7}));
}

TEST(SchedulerTest, CancelPreventsExecution) {
    Scheduler s;
    bool fired = false;
    const EventId id = s.schedule_at(10, [&] { fired = true; });
    s.cancel(id);
    s.run_all();
    EXPECT_FALSE(fired);
    EXPECT_EQ(s.now(), 0);  // cancelled events do not advance time
}

TEST(SchedulerTest, CancelUnknownIdIsNoop) {
    Scheduler s;
    s.cancel(9999);
    s.cancel(kInvalidEvent);
    EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, RunUntilAdvancesClockExactly) {
    Scheduler s;
    int fired = 0;
    (void)s.schedule_at(100, [&] { ++fired; });
    (void)s.schedule_at(500, [&] { ++fired; });
    s.run_until(300);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.now(), 300);
    s.run_until(600);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 600);
}

TEST(SchedulerTest, EventAtBoundaryIncludedByRunUntil) {
    Scheduler s;
    bool fired = false;
    (void)s.schedule_at(300, [&] { fired = true; });
    s.run_until(300);
    EXPECT_TRUE(fired);
}

TEST(SchedulerTest, PastEventsClampToNow) {
    Scheduler s;
    (void)s.schedule_at(100, [] {});
    s.run_all();
    TimePoint seen = -1;
    (void)s.schedule_at(5, [&] { seen = s.now(); });  // in the past
    s.run_all();
    EXPECT_EQ(seen, 100);
}

TEST(SchedulerTest, EventsCanScheduleEvents) {
    Scheduler s;
    std::vector<TimePoint> times;
    (void)s.schedule_at(10, [&] {
        times.push_back(s.now());
        (void)s.schedule_after(15, [&] { times.push_back(s.now()); });
    });
    s.run_all();
    EXPECT_EQ(times, (std::vector<TimePoint>{10, 25}));
}

TEST(SchedulerTest, RunAllHonoursEventLimit) {
    Scheduler s;
    std::function<void()> self = [&] { (void)s.schedule_after(1, self); };
    (void)s.schedule_after(1, self);
    const std::size_t ran = s.run_all(1000);
    EXPECT_EQ(ran, 1000u);
}

TEST(SchedulerTest, PendingCountsOnlyLiveEvents) {
    Scheduler s;
    const EventId a = s.schedule_at(1, [] {});
    (void)s.schedule_at(2, [] {});
    EXPECT_EQ(s.pending(), 2u);
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
}

// --- generation-indexed cancel handles (DESIGN.md §10) ---

TEST(SchedulerHandleTest, CancelAfterFireIsNoop) {
    Scheduler s;
    int fired = 0;
    const EventId a = s.schedule_at(10, [&] { ++fired; });
    s.run_all();
    ASSERT_EQ(fired, 1);
    s.cancel(a);  // already fired
    EXPECT_TRUE(s.empty());
    // The fired event's slot is free again; the stale id must not reach
    // whatever lands there next.
    (void)s.schedule_at(20, [&] { ++fired; });
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
    s.run_all();
    EXPECT_EQ(fired, 2);
}

TEST(SchedulerHandleTest, CancelOfReusedSlotIsNoop) {
    Scheduler s;
    bool b_fired = false;
    const EventId a = s.schedule_at(10, [] {});
    s.cancel(a);
    const EventId b = s.schedule_at(20, [&] { b_fired = true; });  // reuses a's slot
    EXPECT_NE(a, b);
    s.cancel(a);  // stale generation
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
    s.run_all();
    EXPECT_TRUE(b_fired);
    s.cancel(b);  // fired: no-op as well
    EXPECT_TRUE(s.empty());
}

TEST(SchedulerHandleTest, CancelInvalidEventIsNoopWithLiveEvents) {
    Scheduler s;
    int fired = 0;
    for (int i = 0; i < 3; ++i) (void)s.schedule_at(10 + i, [&] { ++fired; });
    s.cancel(kInvalidEvent);
    EXPECT_EQ(s.pending(), 3u);
    s.run_all();
    EXPECT_EQ(fired, 3);
}

TEST(SchedulerHandleTest, SameTimestampFifoUnderHeavySlotReuse) {
    // Handle slots are recycled LIFO, so under churn the slot an event gets
    // runs backwards against insertion order.  Firing order must still be
    // (time, insertion order) for the survivors of every round.
    Scheduler s;
    Rng rng(7);
    for (int round = 1; round <= 50; ++round) {
        const TimePoint t = round * 1'000;
        std::vector<int> order;
        std::vector<std::pair<EventId, int>> live;
        for (int i = 0; i < 40; ++i) {
            live.emplace_back(s.schedule_at(t, [&order, i] { order.push_back(i); }), i);
            if (rng.chance(0.5)) {
                const std::size_t victim = rng.next_below(live.size());
                s.cancel(live[victim].first);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
            }
        }
        std::vector<int> expected;
        for (const auto& [id, label] : live) expected.push_back(label);
        s.run_until(t);
        ASSERT_EQ(order, expected) << "round " << round;
        ASSERT_TRUE(s.empty());
    }
}

TEST(SchedulerHandleTest, OversizedCaptureFallsBackToHeapAndDiesWithScheduler) {
    // A capture larger than the inline buffer is boxed on the heap; an event
    // that never fires must still release it when the scheduler is torn
    // down (the sanitizer job turns a leak here into a failure).
    auto token = std::make_shared<int>(0);
    std::array<char, 256> ballast{};
    auto big = [token, ballast] { (void)ballast; };
    auto small = [token] {};
    static_assert(!EventCallback::stores_inline<decltype(big)>);
    static_assert(EventCallback::stores_inline<decltype(small)>);
    {
        Scheduler s;
        (void)s.schedule_at(10, big);
        (void)s.schedule_at(20, small);
        const EventId cancelled = s.schedule_at(30, big);
        s.cancel(cancelled);
        EXPECT_EQ(token.use_count(), 5);  // token, big, small, two pending copies
    }
    EXPECT_EQ(token.use_count(), 3);  // the scheduler released both pending callbacks
}

// --- calendar-queue storage and window semantics (DESIGN.md §10) ---

TEST(SchedulerTest, StorageStaysBoundedUnderScheduleCancelChurn) {
    // Regression for the tombstone leak: the heap implementation this
    // replaced kept a dead entry per cancel until dispatch reached it, so a
    // schedule/cancel loop grew storage without bound.  The calendar queue
    // erases the node outright.
    Scheduler s;
    for (int round = 0; round < 10'000; ++round) {
        const EventId id = s.schedule_at(round * 10, [] {});
        s.cancel(id);
        ASSERT_EQ(s.pending(), 0u);
        ASSERT_EQ(s.storage_entries(), 0u);
    }
    EXPECT_TRUE(s.empty());
    // Extracted nodes recycle through a bounded freelist rather than leak.
    EXPECT_GE(s.pooled_nodes(), 1u);
    EXPECT_LE(s.pooled_nodes(), 4096u);
}

TEST(SchedulerTest, StorageMatchesPendingUnderMixedChurn) {
    // storage_entries() == pending() is the no-tombstones invariant; it must
    // hold at every point of an interleaved schedule/cancel/run workload.
    Scheduler s;
    std::vector<EventId> live;
    for (int i = 0; i < 500; ++i) {
        live.push_back(s.schedule_at(i * 7, [] {}));
        if (i % 3 == 0) {
            s.cancel(live.back());
            live.pop_back();
        }
        ASSERT_EQ(s.storage_entries(), s.pending());
    }
    s.run_until(250 * 7);
    EXPECT_EQ(s.storage_entries(), s.pending());
    s.run_all();
    EXPECT_EQ(s.storage_entries(), 0u);
    EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, FarApartEventsFireInOrderAcrossRingLaps) {
    // Events separated by more than the ring's span (256 buckets of ~1.05 ms)
    // alias into the same slot; dispatch order must stay global time order.
    Scheduler s;
    std::vector<int> order;
    const TimePoint lap = TimePoint{1} << 28;  // 256 windows of 2^20 ns
    (void)s.schedule_at(3 * lap + 5, [&] { order.push_back(3); });
    (void)s.schedule_at(5, [&] { order.push_back(1); });
    (void)s.schedule_at(lap + 5, [&] { order.push_back(2); });  // same slot as both
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 3 * lap + 5);
}

TEST(SchedulerTest, WindowBoundaryEventsKeepOrder) {
    Scheduler s;
    std::vector<int> order;
    const TimePoint width = TimePoint{1} << 20;  // bucket width
    (void)s.schedule_at(width - 1, [&] { order.push_back(1); });
    (void)s.schedule_at(width, [&] { order.push_back(2); });  // next bucket's first ns
    (void)s.schedule_at(width + 1, [&] { order.push_back(3); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, SparseFarFutureEventReachedWithoutFullDrain) {
    // One event far beyond the ring span: find_next's min-scan jump must
    // reach it (and run_until must clamp the clock) without any events in
    // between.
    Scheduler s;
    const TimePoint far = (TimePoint{1} << 40) + 123;  // ~18 minutes out
    bool fired = false;
    (void)s.schedule_at(far, [&] { fired = true; });
    s.run_until(far - 1);
    EXPECT_FALSE(fired);
    EXPECT_EQ(s.now(), far - 1);
    s.run_until(far);
    EXPECT_TRUE(fired);
    EXPECT_EQ(s.now(), far);
}

}  // namespace
}  // namespace ble::sim
