// BufferPool: a bounded freelist of byte buffers.
//
// The dense-world hot loop copies one AirFrame payload per (transmission,
// locked receiver) pair and discards it microseconds later; without reuse
// that is an allocator round-trip per delivery.  The pool recycles the
// vectors instead: acquire() hands back a previously released buffer with
// its capacity intact (assign/resize then touch no allocator once the
// working set warms up), release() returns it.  Retention is capped so a
// burst never pins unbounded memory.
//
// Determinism: the pool only recycles storage.  Buffer *contents* are fully
// overwritten by acquire_copy/acquire before anyone reads them, so pooling
// can never alter simulated values, RNG draws, or event payloads.
//
// Single-threaded by design, like everything else owned by one trial's
// world: each worker gets its own pool, so there is no shared mutable state.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace ble {

class BufferPool {
public:
    // No eager freelist reserve: a world that never pools (or pools a
    // handful of buffers) shouldn't pay a cap-sized allocation up front —
    // construction cost matters because every trial builds a fresh world.
    explicit BufferPool(std::size_t max_buffers = 256) : cap_(max_buffers) {}

    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    /// A buffer of exactly `size` bytes with unspecified contents (an empty
    /// one by default, for writers that size it themselves).
    [[nodiscard]] Bytes acquire(std::size_t size = 0) {
        Bytes b = take();
        b.resize(size);
        return b;
    }

    /// A buffer holding a copy of `src` (the pooled fast path for the
    /// per-receiver AirFrame payload copy).
    [[nodiscard]] Bytes acquire_copy(BytesView src) {
        Bytes b = take();
        b.assign(src.begin(), src.end());
        return b;
    }

    /// Returns a buffer to the pool; beyond the cap it simply deallocates.
    void release(Bytes&& b) noexcept {
        if (free_.size() >= cap_) return;  // b destructs here
        if (free_.size() == free_.capacity()) {
            // Lazy freelist growth: a small first block covers the few
            // in-flight buffers of a sparse world, one jump to the cap
            // covers a crowded one.  Never grows element-by-element.
            free_.reserve(free_.capacity() == 0 ? 16 : cap_);
        }
        b.clear();  // keep capacity, drop stale contents
        free_.push_back(std::move(b));
    }

    [[nodiscard]] std::size_t pooled() const noexcept { return free_.size(); }

private:
    [[nodiscard]] Bytes take() {
        if (free_.empty()) return Bytes{};
        Bytes b = std::move(free_.back());
        free_.pop_back();
        return b;
    }

    std::size_t cap_;
    std::vector<Bytes> free_;
};

}  // namespace ble
