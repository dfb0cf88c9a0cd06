// Move-only type-erased callable with inline storage.
//
// std::function keeps only 16 bytes inline (libstdc++), so nearly every
// scheduler callback — a lambda capturing `this`, an id and a liveness
// watch — costs a heap allocation on schedule and a free on fire.
// InlineFunction keeps callables of up to kCapacity bytes inside the
// object and falls back to one heap block only for larger ones, so the
// scheduler's event nodes (which live in a recycling arena) carry their
// callbacks with no allocator traffic at all in the common case.
//
// Move-only, like std::move_only_function: callbacks are handed to the
// scheduler once and fired once, so there is nothing to copy.  A moved-from
// InlineFunction is empty.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ble {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
public:
    /// Inline buffer size: a `this` pointer, a liveness watch and a few
    /// scalars or a std::function fit.
    static constexpr std::size_t kCapacity = 64;

    /// True when a callable of type F is stored inside the object (no heap
    /// block).  Larger, over-aligned or throwing-move callables are boxed.
    template <typename F>
    static constexpr bool stores_inline = sizeof(F) <= kCapacity &&
                                          alignof(F) <= alignof(std::max_align_t) &&
                                          std::is_nothrow_move_constructible_v<F>;

    InlineFunction() noexcept = default;

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                 std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
    InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
        using D = std::decay_t<F>;
        if constexpr (stores_inline<D>) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
        } else {
            ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
        }
        ops_ = &kOps<D>;
    }

    InlineFunction(InlineFunction&& other) noexcept { take(other); }

    InlineFunction& operator=(InlineFunction&& other) noexcept {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

    /// Calls the stored callable; calling an empty InlineFunction is
    /// undefined, exactly like dereferencing a null function pointer.
    R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

private:
    struct Ops {
        R (*invoke)(void* storage, Args&&... args);
        /// Move-constructs the callable into `dst` and destroys it in `src`.
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* storage) noexcept;
    };

    template <typename D>
    static D& target(void* storage) noexcept {
        if constexpr (stores_inline<D>) {
            return *std::launder(static_cast<D*>(storage));
        } else {
            return **std::launder(static_cast<D**>(storage));
        }
    }

    template <typename D>
    static constexpr Ops kOps{
        [](void* storage, Args&&... args) -> R {
            return static_cast<R>(target<D>(storage)(std::forward<Args>(args)...));
        },
        [](void* dst, void* src) noexcept {
            if constexpr (stores_inline<D>) {
                D& from = target<D>(src);
                ::new (dst) D(std::move(from));
                from.~D();
            } else {
                ::new (dst) D*(&target<D>(src));  // the box changes hands
            }
        },
        [](void* storage) noexcept {
            if constexpr (stores_inline<D>) {
                target<D>(storage).~D();
            } else {
                delete &target<D>(storage);
            }
        },
    };

    void take(InlineFunction& other) noexcept {
        if (other.ops_ == nullptr) return;
        other.ops_->relocate(storage_, other.storage_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
    }

    void reset() noexcept {
        if (ops_ == nullptr) return;
        ops_->destroy(storage_);
        ops_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage_[kCapacity];
    const Ops* ops_ = nullptr;
};

}  // namespace ble
