// Simulation time and the BLE timing constants the attack is built on.
//
// All simulation time is held in signed 64-bit *nanoseconds*.  The BLE spec
// expresses everything in microseconds (and 1250 µs units); nanoseconds give
// headroom so sub-µs clock-drift integration never rounds to zero.
#pragma once

#include <chrono>
#include <cstdint>

namespace ble {

/// Absolute simulation time in nanoseconds since simulation start.
using TimePoint = std::int64_t;
/// Signed duration in nanoseconds.
using Duration = std::int64_t;

constexpr Duration operator""_ns(unsigned long long v) { return static_cast<Duration>(v); }
constexpr Duration operator""_us(unsigned long long v) { return static_cast<Duration>(v) * 1000; }
constexpr Duration operator""_ms(unsigned long long v) {
    return static_cast<Duration>(v) * 1000 * 1000;
}
constexpr Duration operator""_s(unsigned long long v) {
    return static_cast<Duration>(v) * 1000 * 1000 * 1000;
}

constexpr Duration microseconds(std::int64_t v) { return v * 1000; }
constexpr Duration milliseconds(std::int64_t v) { return v * 1000 * 1000; }
constexpr Duration seconds(std::int64_t v) { return v * 1000 * 1000 * 1000; }
constexpr double to_us(Duration d) { return static_cast<double>(d) / 1000.0; }
constexpr double to_ms(Duration d) { return static_cast<double>(d) / 1'000'000.0; }

// --- The telemetry clock (host wall time, quarantined) ------------------
//
// Campaign telemetry (src/obs/telemetry, src/campaign heartbeats, the
// straggler watchdog) needs host wall time: shard latency, heartbeat age and
// throughput are properties of the run, not of the simulation.  Every such
// read flows through this ONE helper so the determinism boundary stays
// auditable: values derived from it live in the `telemetry.*` namespace and
// never reach sim-derived artifacts (records, metrics.*, traces).
// This is the single audited wall-clock suppression of the telemetry path;
// injectable_lint rule D2 flags any other clock read outside common/rng.

/// Monotonic host time in nanoseconds (epoch unspecified; deltas only).
[[nodiscard]] inline std::int64_t telemetry_now_ns() noexcept {
    // injectable-lint: allow(D2) -- the telemetry clock: the one audited wall-clock read of the campaign telemetry path; telemetry.* values never enter deterministic outputs
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch())
        .count();
}

/// Monotonic host time in milliseconds — the unit telemetry records use.
[[nodiscard]] inline std::int64_t telemetry_now_ms() noexcept {
    return telemetry_now_ns() / 1'000'000;
}

// --- Bluetooth Core Specification timing constants (Vol 6, Part B) ---

/// Inter-frame spacing: gap between consecutive frames in a connection event.
constexpr Duration kTifs = 150_us;
/// Granularity of WinOffset / WinSize / connInterval (1.25 ms).
constexpr Duration kUnit1250us = 1250_us;
/// Granularity of supervision timeout (10 ms).
constexpr Duration kUnit10ms = 10_ms;
/// Constant term of the window-widening formula (Eq. 4 of the paper).
constexpr Duration kWindowWideningConstant = 32_us;
/// Mandatory delay between the end of CONNECT_REQ and the transmit window.
constexpr Duration kTransmitWindowDelayUncoded = 1250_us;

/// Connection interval from the Hop Interval field (paper Eq. 2).
constexpr Duration connection_interval(std::uint16_t hop_interval) {
    return static_cast<Duration>(hop_interval) * kUnit1250us;
}

}  // namespace ble
