#include "link/channel_selection.hpp"

#include "link/spec.hpp"

namespace ble::link {

std::uint8_t Csa1::channel_for_event(std::uint16_t /*event_counter*/) {
    last_unmapped_ = static_cast<std::uint8_t>((last_unmapped_ + hop_) % kNumDataChannels);
    if (map_.is_used(last_unmapped_)) return last_unmapped_;
    const auto used = map_.used_channels();
    if (used.empty()) return last_unmapped_;  // degenerate map; keep hopping
    const std::size_t remap = last_unmapped_ % used.size();
    return used[remap];
}

namespace {
/// PERM: reverse the bits inside each byte of the 16-bit value.
std::uint16_t perm(std::uint16_t v) noexcept {
    auto swap8 = [](std::uint8_t b) {
        b = static_cast<std::uint8_t>(((b & 0xF0) >> 4) | ((b & 0x0F) << 4));
        b = static_cast<std::uint8_t>(((b & 0xCC) >> 2) | ((b & 0x33) << 2));
        b = static_cast<std::uint8_t>(((b & 0xAA) >> 1) | ((b & 0x55) << 1));
        return b;
    };
    return static_cast<std::uint16_t>((swap8(static_cast<std::uint8_t>(v >> 8)) << 8) |
                                      swap8(static_cast<std::uint8_t>(v & 0xFF)));
}

/// MAM: multiply-add-modulo 2^16.
std::uint16_t mam(std::uint16_t a, std::uint16_t b) noexcept {
    return static_cast<std::uint16_t>((17u * a + b) & 0xFFFF);
}
}  // namespace

Csa2::Csa2(std::uint32_t access_address, ChannelMap map) noexcept
    : channel_identifier_(static_cast<std::uint16_t>(((access_address >> 16) & 0xFFFF) ^
                                                     (access_address & 0xFFFF))),
      map_(map) {}

std::uint16_t Csa2::prn_e(std::uint16_t event_counter) const noexcept {
    std::uint16_t x = static_cast<std::uint16_t>(event_counter ^ channel_identifier_);
    for (int round = 0; round < 3; ++round) {
        x = perm(x);
        x = mam(x, channel_identifier_);
    }
    return static_cast<std::uint16_t>(x ^ channel_identifier_);
}

std::uint8_t Csa2::channel_for_event(std::uint16_t event_counter) {
    const std::uint16_t prn = prn_e(event_counter);
    const auto unmapped = static_cast<std::uint8_t>(prn % kNumDataChannels);
    if (map_.is_used(unmapped)) return unmapped;
    const auto used = map_.used_channels();
    if (used.empty()) return unmapped;
    const auto remap_index =
        static_cast<std::size_t>((static_cast<std::uint32_t>(used.size()) * prn) >> 16);
    return used[remap_index];
}

}  // namespace ble::link
