// LivenessToken: "is my owner still there?" for scheduled callbacks.
//
// A link-layer object schedules its timers on the world's scheduler and
// may be destroyed (or stopped) while some are still pending; each
// callback therefore carries a Watch and runs only while it is valid.
// std::weak_ptr did this job with an atomic reference-count update per
// copy, lock and release — on every event of a single-threaded trial.
// This is the same shape without atomics: one heap block per owner, a
// plain reference count, and a generation number so that renew() can
// invalidate every outstanding watch without allocating a new block.
//
// Single-threaded by design, like everything else owned by one trial's
// world.  Watches must not outlive the world's thread, which they cannot:
// they live in that world's scheduler.
#pragma once

#include <cstdint>
#include <utility>

namespace ble {

class LivenessToken {
    struct Block {
        std::uint32_t refs = 1;   ///< the owner plus every watch
        bool owner_gone = false;  ///< the token was destroyed
        std::uint64_t generation = 0;
    };

public:
    /// A callback's view of the token: valid until the owner is destroyed
    /// or renews.  Move-only is enough for scheduler callbacks, but copying
    /// is cheap and keeps lambdas that capture it copyable.
    class Watch {
    public:
        Watch(const Watch& other) noexcept
            : block_(other.block_), generation_(other.generation_) {
            if (block_ != nullptr) ++block_->refs;
        }
        Watch(Watch&& other) noexcept
            : block_(std::exchange(other.block_, nullptr)), generation_(other.generation_) {}
        Watch& operator=(Watch other) noexcept {
            std::swap(block_, other.block_);
            generation_ = other.generation_;
            return *this;
        }
        ~Watch() { release(block_); }

        [[nodiscard]] bool alive() const noexcept {
            return block_ != nullptr && !block_->owner_gone &&
                   block_->generation == generation_;
        }

    private:
        friend class LivenessToken;
        Watch(Block* block, std::uint64_t generation) noexcept
            : block_(block), generation_(generation) {
            ++block_->refs;
        }

        Block* block_;
        std::uint64_t generation_;
    };

    LivenessToken() : block_(new Block) {}
    ~LivenessToken() {
        block_->owner_gone = true;
        release(block_);
    }
    LivenessToken(const LivenessToken&) = delete;
    LivenessToken& operator=(const LivenessToken&) = delete;

    [[nodiscard]] Watch watch() const noexcept { return Watch(block_, block_->generation); }

    /// Invalidates every watch handed out so far; later watches are valid.
    void renew() noexcept { ++block_->generation; }

private:
    static void release(Block* block) noexcept {
        if (block != nullptr && --block->refs == 0) delete block;
    }

    Block* block_;
};

}  // namespace ble
