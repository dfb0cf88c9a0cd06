// Discrete-event scheduler: the single source of truth for simulated time.
//
// Events fire in (time, insertion-order) order, so same-timestamp events are
// deterministic.  Storage is a calendar queue: a ring of fixed-width time
// buckets (width ~ one connection event), each an intrusive doubly-linked
// list kept sorted by (time, id), with a bitmap of occupied buckets so the
// drain cursor skips runs of empty windows in one countr_zero.  Cancellation
// unlinks the node outright — no tombstones — so cancel-heavy workloads
// (dense worlds cancelling timeout guards every event) keep storage
// proportional to the live event count.  Nodes come from a per-scheduler
// chunk arena whose free slots are recycled in place, so steady-state
// schedule/cancel churn — and the first burst of a freshly built world —
// performs one heap allocation per *chunk* of events, not per event.
// Callbacks live inside the node (InlineFunction, 64 bytes inline), and an
// EventId names a slot of a generation-indexed handle table, so neither
// scheduling nor cancelling touches the allocator once the world is warm.
// schedule_at constructs the caller's callable directly in its node, and
// firing calls it there: the node is unlinked and its handle released
// first, so the callback may cancel its own id (a no-op), reschedule itself
// or grow the arena (chunks never move), and the node returns to the arena
// once the call ends, also when it throws.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/inline_function.hpp"
#include "common/time.hpp"

namespace ble::sim {

/// Names one scheduled event for cancel(): the low 32 bits hold its handle
/// slot + 1 and the high 32 bits that slot's generation, which advances
/// every time the slot is released.  An id whose event fired or was
/// cancelled therefore never matches again, even after the slot is reused.
/// Ids carry no ordering; firing order is the scheduler's (time, sequence).
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

/// The scheduler's callback type: move-only, stored inline in the event node.
using EventCallback = InlineFunction<void()>;

/// Fixed-size-slot arena feeding the calendar buckets' map nodes.  Slots are
/// carved out of chunks (one malloc per kChunkSlots events) and recycled
/// through an intrusive free list; chunks are only returned to the system
/// when the owning scheduler dies, so peak memory equals peak live events
/// rounded up to a chunk.
class EventNodePool {
public:
    EventNodePool() = default;
    EventNodePool(const EventNodePool&) = delete;
    EventNodePool& operator=(const EventNodePool&) = delete;

    void* allocate(std::size_t bytes) {
        if (slot_bytes_ == 0) slot_bytes_ = bytes;
        if (bytes != slot_bytes_) return ::operator new(bytes);  // foreign size: bypass
        if (free_ == nullptr) grow();
        FreeSlot* slot = free_;
        free_ = slot->next;
        --free_count_;
        return slot;
    }

    void deallocate(void* p, std::size_t bytes) noexcept {
        if (bytes != slot_bytes_) {
            ::operator delete(p);
            return;
        }
        auto* slot = static_cast<FreeSlot*>(p);
        slot->next = free_;
        free_ = slot;
        ++free_count_;
    }

    /// Recycled slots currently waiting for reuse.
    [[nodiscard]] std::size_t free_count() const noexcept { return free_count_; }

private:
    struct FreeSlot {
        FreeSlot* next;
    };
    static constexpr std::size_t kChunkSlots = 64;

    void grow() {
        const std::size_t stride =
            (slot_bytes_ + alignof(std::max_align_t) - 1) & ~(alignof(std::max_align_t) - 1);
        chunks_.push_back(std::make_unique<unsigned char[]>(stride * kChunkSlots));
        unsigned char* base = chunks_.back().get();
        for (std::size_t i = kChunkSlots; i-- > 0;) {  // thread in address order
            auto* slot = reinterpret_cast<FreeSlot*>(base + i * stride);
            slot->next = free_;
            free_ = slot;
        }
        free_count_ += kChunkSlots;
    }

    std::size_t slot_bytes_ = 0;
    FreeSlot* free_ = nullptr;
    std::size_t free_count_ = 0;
    std::vector<std::unique_ptr<unsigned char[]>> chunks_;
};

class Scheduler {
public:
    Scheduler() = default;
    ~Scheduler();
    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    [[nodiscard]] TimePoint now() const noexcept { return now_; }

    /// Schedules `fn` at absolute time `t` (clamped to `now()` if in the past).
    /// The returned EventId is the only way to cancel the event; discarding it
    /// (fire-and-forget) needs an audited allow(D4) lint suppression.
    template <typename F>
    [[nodiscard]] EventId schedule_at(TimePoint t, F&& fn) {
        void* slot = pool_.allocate(sizeof(EventNode));
        EventNode* node = nullptr;
        try {
            node = ::new (slot) EventNode(std::forward<F>(fn));
        } catch (...) {
            pool_.deallocate(slot, sizeof(EventNode));
            throw;
        }
        return enqueue(node, t);
    }
    template <typename F>
    [[nodiscard]] EventId schedule_after(Duration d, F&& fn) {
        return schedule_at(now_ + d, std::forward<F>(fn));
    }

    /// Cancels a pending event. Cancelling an already-fired, already-cancelled
    /// or invalid id is a harmless no-op (devices routinely cancel their
    /// timeout guards).
    void cancel(EventId id) noexcept;

    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] std::size_t pending() const noexcept { return live_; }

    /// Live entries actually stored in the calendar buckets.  Always equals
    /// pending(): cancels erase their node instead of tombstoning it, which
    /// is exactly what the churn regression test asserts.
    [[nodiscard]] std::size_t storage_entries() const noexcept;

    /// Recycled arena slots waiting for reuse (bounded by the peak live
    /// event count, rounded up to a chunk).
    [[nodiscard]] std::size_t pooled_nodes() const noexcept { return pool_.free_count(); }

    /// Runs the next event; returns false if none are pending.
    bool run_one();

    /// Runs all events with time <= t, then advances the clock to exactly t.
    void run_until(TimePoint t);

    void run_for(Duration d) { run_until(now_ + d); }

    /// Drains the queue (bounded by `max_events` as a runaway guard).
    std::size_t run_all(std::size_t max_events = 100'000'000);

private:
    /// Bucket width 2^20 ns (~1.05 ms), one connection event at the paper's
    /// shortest practical interval, so a connection's worth of traffic lands
    /// in one or two buckets and the drain cursor rarely skips.
    static constexpr int kBucketShift = 20;
    static constexpr std::size_t kNumBuckets = 256;
    static constexpr std::size_t kBucketMask = kNumBuckets - 1;

    /// Firing order: time, then the monotonic insertion sequence.
    struct Key {
        TimePoint t;
        std::uint64_t seq;
        bool operator<(const Key& other) const noexcept {
            return t != other.t ? t < other.t : seq < other.seq;
        }
    };

    /// One pending event, arena-allocated, linked into its bucket's sorted
    /// list.  Fixed-size by design: the arena recycles slots in place.
    struct EventNode {
        template <typename F>
        explicit EventNode(F&& f) : fn(std::forward<F>(f)) {}

        Key key{};
        EventNode* prev = nullptr;
        EventNode* next = nullptr;
        std::uint32_t handle = 0;  ///< index into handles_
        EventCallback fn;
    };

    /// One cancel-handle slot.  `node` is null while the slot is free; a free
    /// slot links to the next one through `next_free` (index + 1, 0 = end).
    struct Handle {
        EventNode* node = nullptr;
        std::uint32_t generation = 0;
        std::uint32_t next_free = 0;
    };

    /// A calendar bucket: sorted by Key, smallest at head.  Trivially
    /// constructible, so building a scheduler costs two null stores per
    /// bucket instead of a container construction.
    struct Bucket {
        EventNode* head = nullptr;
        EventNode* tail = nullptr;
    };

    [[nodiscard]] static constexpr std::int64_t window_of(TimePoint t) noexcept {
        return t >> kBucketShift;
    }

    /// Finds the earliest live event at or after the cursor window.  Returns
    /// false when no events are pending.  The occupancy bitmap makes the
    /// scan proportional to the number of *occupied* buckets, not the number
    /// of empty windows crossed — events one connection interval apart
    /// (dozens of empty windows) cost the same as adjacent ones.
    bool find_next(std::int64_t& window, Bucket** bucket) noexcept;

    void mark_occupied(std::size_t slot) noexcept {
        occupancy_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    void mark_empty(std::size_t slot) noexcept {
        occupancy_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }

    /// Keys `node` (its callback already built) at `t`, gives it a handle
    /// and links it into its bucket; destroys it if no handle can be had.
    EventId enqueue(EventNode* node, TimePoint t);
    void fire(Bucket& bucket);
    void unlink(Bucket& bucket, EventNode* node, std::size_t slot) noexcept;
    void destroy(EventNode* node) noexcept;
    [[nodiscard]] std::uint32_t acquire_handle();
    void release_handle(std::uint32_t index) noexcept;

    TimePoint now_ = 0;
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
    /// Window currently being drained; every live event has t >= now(), and
    /// now() lies inside this window, so forward scans never miss an event.
    std::int64_t cursor_ = 0;
    /// Arena backing every event node.
    EventNodePool pool_;
    std::array<Bucket, kNumBuckets> buckets_{};
    /// Bit b set iff buckets_[b] is non-empty; lets find_next skip runs of
    /// empty windows with countr_zero instead of probing each list.
    std::array<std::uint64_t, kNumBuckets / 64> occupancy_{};
    /// Cancel handles, indexed by the slot an EventId encodes.  Used for O(1)
    /// cancel only — firing order comes from the bucket lists, so which slot
    /// an event gets can never reach the simulation.
    std::vector<Handle> handles_;
    std::uint32_t free_handle_ = 0;  ///< first free slot + 1 (0 = none)
};

}  // namespace ble::sim
