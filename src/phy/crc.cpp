#include "phy/crc.hpp"

#include <array>

namespace ble::phy {

namespace {
// Taps of x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1 in the shifted-right
// LFSR formulation (ubertooth/BTLEJack-compatible, validated against
// over-the-air captures by those projects).
constexpr std::uint32_t kLfsrMask = 0x5A6000;
constexpr std::uint32_t k24Bits = 0xFFFFFF;

// Within one byte the LFSR only ever consumes the low eight state bits (the
// feedback taps sit at bit 13 and above, so nothing they set can reach bit
// 0 before the byte ends), and the step is linear.  A byte therefore folds
// in as state' = (state >> 8) ^ T[(state ^ byte) & 0xFF], where T[i] is the
// state after eight steps from state i with zero input.
constexpr std::array<std::uint32_t, 256> make_table() noexcept {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t state = i;
        for (int bit = 0; bit < 8; ++bit) {
            const std::uint32_t next = state & 1;
            state >>= 1;
            if (next != 0) state ^= (1u << 23) | kLfsrMask;
        }
        table[i] = state;
    }
    return table;
}
constexpr std::array<std::uint32_t, 256> kTable = make_table();
}  // namespace

std::uint32_t crc24(BytesView pdu, std::uint32_t init) noexcept {
    std::uint32_t state = init & k24Bits;
    for (std::uint8_t byte : pdu) state = (state >> 8) ^ kTable[(state ^ byte) & 0xFF];
    return state;
}

std::uint32_t crc24_bitwise(BytesView pdu, std::uint32_t init) noexcept {
    std::uint32_t state = init & k24Bits;
    for (std::uint8_t byte : pdu) {
        std::uint8_t cur = byte;
        for (int bit = 0; bit < 8; ++bit) {
            const std::uint32_t next = (state ^ cur) & 1;
            cur >>= 1;
            state >>= 1;
            if (next != 0) {
                state |= 1u << 23;
                state ^= kLfsrMask;
            }
        }
    }
    return state;
}

std::uint32_t crc24_reverse(BytesView pdu, std::uint32_t crc) noexcept {
    // Exact inverse of one forward bit-step:
    //   forward: next = (state ^ in) & 1; state >>= 1;
    //            if next { state |= 1<<23; state ^= kLfsrMask; }
    // kLfsrMask bit 23 is 0, so after a forward step bit 23 == next.
    std::uint32_t state = crc & k24Bits;
    for (std::size_t i = pdu.size(); i-- > 0;) {
        std::uint8_t cur = pdu[i];
        for (int bit = 7; bit >= 0; --bit) {
            const std::uint32_t next = (state >> 23) & 1;
            if (next != 0) {
                state ^= kLfsrMask;
                state &= ~(1u << 23);
            }
            const std::uint32_t in = (static_cast<std::uint32_t>(cur) >> bit) & 1;
            state = ((state << 1) & k24Bits) | (next ^ in);
        }
    }
    return state;
}

}  // namespace ble::phy
