// Replacement global allocation functions: every heap allocation of the
// benchmark binary (library code included) bumps a per-thread counter, so
// allocations per trial are counted exactly without touching the library.
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

constinit thread_local std::uint64_t t_calls = 0;
constinit thread_local std::uint64_t t_bytes = 0;

void* counted_alloc(std::size_t size) {
    ++t_calls;
    t_bytes += size;
    return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    ++t_calls;
    t_bytes += size;
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded =
        ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded);
}

}  // namespace

namespace perfbench {

AllocCounts thread_alloc_counts() noexcept { return AllocCounts{t_calls, t_bytes}; }

}  // namespace perfbench

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, align)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, align)) return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
