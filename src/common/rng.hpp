// Deterministic random number generation.
//
// Every stochastic element of the simulation (clock drift, capture phase,
// payload noise) draws from an explicitly seeded Xoshiro256** stream, so any
// experiment is reproducible from its seed.  std::mt19937 is avoided because
// its state size and seeding rules make cross-platform reproducibility and
// cheap per-device forking awkward.
#pragma once

#include <cstdint>

namespace ble {

class Rng {
public:
    /// Seeds the four 64-bit words from the given seed via SplitMix64, per the
    /// xoshiro authors' recommendation (never yields the all-zero state).
    explicit Rng(std::uint64_t seed) noexcept;

    /// Uniform 64-bit value (xoshiro256**).  Inline, with next_double: the
    /// medium draws one per received byte.
    std::uint64_t next_u64() noexcept {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform in [0, bound) without modulo bias (rejection sampling).
    /// Inline, so a caller drawing from a local copy keeps it in registers.
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        if (bound == 0) return 0;
        // Rejection sampling over the largest multiple of `bound`.
        const std::uint64_t limit = bound * (~0ULL / bound);
        std::uint64_t v = next_u64();
        while (v >= limit) v = next_u64();
        return v % bound;
    }

    /// Uniform double in [0, 1): 53 high-quality bits.
    double next_double() noexcept { return to_unit(next_u64()); }

    /// The double next_double() makes of the 64-bit draw `v`.
    static constexpr double to_unit(std::uint64_t v) noexcept {
        return static_cast<double>(v >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;

    /// Standard normal via Box-Muller (no cached spare: keeps state trivially
    /// copyable and fork-independent).
    double normal(double mean, double stddev) noexcept;

    bool chance(double probability) noexcept { return next_double() < probability; }

    /// Derive an independent child stream (for per-device RNGs).
    Rng fork() noexcept;

private:
    static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

}  // namespace ble
