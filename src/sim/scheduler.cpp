#include "sim/scheduler.hpp"

#include <utility>

#include "obs/prof/profiler.hpp"

namespace ble::sim {

namespace {

/// One dispatched event, profiled.  The "sim.dispatch" span opens at the
/// pre-dispatch clock and closes at the event's firing time, so its sim-time
/// duration is exactly the simulated jump the event caused; queue depth is
/// sampled as a prof gauge.  All of it compiles down to a thread-local null
/// test when no profiler is installed.
inline void dispatch_profiled(TimePoint prev, TimePoint fire, std::size_t pending,
                              EventCallback& fn) {
    obs::prof::set_sim_now(fire);
    static thread_local obs::prof::SpanSite dispatch_site{"sim.dispatch"};
    static thread_local obs::prof::GaugeSite depth_site{"sim.sched.queue_depth"};
    obs::prof::Span span(dispatch_site, prev);
    obs::prof::sample_gauge(depth_site, static_cast<std::int64_t>(pending));
    fn();
}

}  // namespace

Scheduler::~Scheduler() {
    for (Bucket& bucket : buckets_) {
        for (EventNode* node = bucket.head; node != nullptr;) {
            EventNode* next = node->next;
            destroy(node);
            node = next;
        }
    }
}

void Scheduler::destroy(EventNode* node) noexcept {
    node->~EventNode();
    pool_.deallocate(node, sizeof(EventNode));
}

std::uint32_t Scheduler::acquire_handle() {
    if (free_handle_ != 0) {
        const std::uint32_t index = free_handle_ - 1;
        free_handle_ = handles_[index].next_free;
        return index;
    }
    // One block covers a sparse world's peak; crowded worlds double from it.
    if (handles_.capacity() == 0) handles_.reserve(64);
    handles_.emplace_back();
    return static_cast<std::uint32_t>(handles_.size() - 1);
}

void Scheduler::release_handle(std::uint32_t index) noexcept {
    Handle& handle = handles_[index];
    handle.node = nullptr;
    ++handle.generation;  // every id naming the old occupant goes stale
    handle.next_free = free_handle_;
    free_handle_ = index + 1;
    --live_;
}

void Scheduler::unlink(Bucket& bucket, EventNode* node, std::size_t slot) noexcept {
    if (node->prev != nullptr) {
        node->prev->next = node->next;
    } else {
        bucket.head = node->next;
    }
    if (node->next != nullptr) {
        node->next->prev = node->prev;
    } else {
        bucket.tail = node->prev;
    }
    if (bucket.head == nullptr) mark_empty(slot);
}

EventId Scheduler::schedule_at(TimePoint t, EventCallback fn) {
    if (t < now_) t = now_;
    const std::uint32_t handle = acquire_handle();
    const std::size_t slot = static_cast<std::size_t>(window_of(t)) & kBucketMask;
    Bucket& bucket = buckets_[slot];
    auto* node = new (pool_.allocate(sizeof(EventNode)))
        EventNode{Key{t, next_seq_++}, nullptr, nullptr, handle, std::move(fn)};
    handles_[handle].node = node;
    ++live_;
    // Sequences are monotonic and simulations schedule forward, so the new key
    // almost always sorts after everything already in its bucket: walk
    // backward from the tail, which terminates immediately in the hot case.
    EventNode* after = bucket.tail;
    while (after != nullptr && node->key < after->key) after = after->prev;
    if (after == nullptr) {  // new minimum (or empty bucket)
        node->next = bucket.head;
        if (bucket.head != nullptr) {
            bucket.head->prev = node;
        } else {
            bucket.tail = node;
            mark_occupied(slot);
        }
        bucket.head = node;
    } else {
        node->prev = after;
        node->next = after->next;
        if (after->next != nullptr) {
            after->next->prev = node;
        } else {
            bucket.tail = node;
        }
        after->next = node;
    }
    return (static_cast<EventId>(handles_[handle].generation) << 32) | (EventId{handle} + 1);
}

void Scheduler::cancel(EventId id) noexcept {
    const std::uint64_t index = (id & 0xFFFFFFFFu) - 1;  // kInvalidEvent wraps to the max
    if (index >= handles_.size()) return;
    const Handle& handle = handles_[index];
    if (handle.node == nullptr || handle.generation != (id >> 32)) return;  // fired or reused
    EventNode* node = handle.node;
    const std::size_t slot = static_cast<std::size_t>(window_of(node->key.t)) & kBucketMask;
    unlink(buckets_[slot], node, slot);
    release_handle(node->handle);
    destroy(node);  // slot returns to the arena
}

bool Scheduler::find_next(std::int64_t& window, Bucket** bucket) noexcept {
    if (live_ == 0) return false;
    // Walk the *occupied* slots in circular order from the cursor, skipping
    // empty windows wholesale via the bitmap.  Within one lap, circular slot
    // distance is window order, so the first slot whose earliest entry
    // belongs to the window under the cursor is the global minimum: a slot
    // holding only later laps sorts >= cursor_ + kNumBuckets, which no
    // direct match inside this lap can exceed.
    const std::size_t start = static_cast<std::size_t>(cursor_) & kBucketMask;
    constexpr std::size_t kNumWords = kNumBuckets / 64;
    Bucket* best = nullptr;
    for (std::size_t step = 0; step <= kNumWords; ++step) {
        const std::size_t wi = ((start >> 6) + step) % kNumWords;
        std::uint64_t bits = occupancy_[wi];
        if (step == 0) {
            bits &= ~std::uint64_t{0} << (start & 63);  // slots >= start only
        } else if (step == kNumWords) {
            bits &= (std::uint64_t{1} << (start & 63)) - 1;  // wrapped remainder
        }
        while (bits != 0) {
            const std::size_t slot = (wi << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            Bucket& b = buckets_[slot];
            const std::int64_t w =
                cursor_ + static_cast<std::int64_t>((slot - start) & kBucketMask);
            if (window_of(b.head->key.t) == w) {
                window = w;
                *bucket = &b;
                return true;
            }
            // Lap-ahead slot: remember its minimum for the sparse fallback.
            if (best == nullptr || b.head->key < best->head->key) best = &b;
        }
    }
    // Every occupied slot holds only events > kNumBuckets windows away; the
    // loop above already reduced them to the exact global minimum.
    window = window_of(best->head->key.t);
    *bucket = best;
    return true;
}

void Scheduler::fire(Bucket& bucket) {
    EventNode* node = bucket.head;
    const TimePoint t = node->key.t;
    // The callback is moved out before the node dies so an event
    // rescheduling itself (or churning the arena) can never touch the
    // running functor.
    EventCallback fn = std::move(node->fn);
    unlink(bucket, node, static_cast<std::size_t>(window_of(t)) & kBucketMask);
    release_handle(node->handle);
    destroy(node);
    const TimePoint prev = now_;
    now_ = t;
    cursor_ = window_of(now_);
    dispatch_profiled(prev, now_, live_, fn);
}

bool Scheduler::run_one() {
    std::int64_t window = 0;
    Bucket* bucket = nullptr;
    if (!find_next(window, &bucket)) return false;
    fire(*bucket);
    return true;
}

void Scheduler::run_until(TimePoint t) {
    for (;;) {
        std::int64_t window = 0;
        Bucket* bucket = nullptr;
        if (!find_next(window, &bucket) || bucket->head->key.t > t) break;
        fire(*bucket);
    }
    if (now_ < t) now_ = t;
    cursor_ = window_of(now_);
}

std::size_t Scheduler::run_all(std::size_t max_events) {
    std::size_t count = 0;
    while (count < max_events && run_one()) ++count;
    return count;
}

std::size_t Scheduler::storage_entries() const noexcept {
    std::size_t total = 0;
    for (const Bucket& b : buckets_) {
        for (const EventNode* node = b.head; node != nullptr; node = node->next) ++total;
    }
    return total;
}

}  // namespace ble::sim
