#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace ble {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& word : s_) word = splitmix64(x);
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Rejection sampling over the largest multiple of `bound`.
    const std::uint64_t limit = bound * (~0ULL / bound);
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return v % bound;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * next_double(); }

double Rng::normal(double mean, double stddev) noexcept {
    // Box-Muller; u1 nudged away from 0 so log() stays finite.
    const double u1 = next_double() + 1e-18;
    const double u2 = next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::fork() noexcept { return Rng(next_u64()); }

}  // namespace ble
