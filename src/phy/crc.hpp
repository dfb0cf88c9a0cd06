// BLE CRC-24 (Vol 6, Part B, §3.1.1): polynomial
//   x^24 + x^10 + x^9 + x^6 + x^4 + x^3 + x + 1
// seeded with CRCInit (0x555555 on advertising channels; the value from
// CONNECT_REQ on data channels), processing PDU bits LSB-first.
//
// `crc24` folds one byte per step through a 256-entry table; `crc24_bitwise`
// is the one-bit-per-step LFSR it was derived from, kept as the reference
// the table is tested against.
//
// `crc24_reverse` runs the LFSR *backwards* from an observed CRC through the
// PDU: this is Mike Ryan's trick for recovering the CRCInit of an already
// established connection from a single sniffed packet, which the InjectaBLE
// sniffer uses when it missed the CONNECT_REQ.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace ble::phy {

/// 24-bit CRC over `pdu`, starting from `init` (24-bit state).
[[nodiscard]] std::uint32_t crc24(BytesView pdu, std::uint32_t init) noexcept;

/// Reference bit-serial LFSR; same result as crc24, eight times the steps.
[[nodiscard]] std::uint32_t crc24_bitwise(BytesView pdu, std::uint32_t init) noexcept;

/// Inverse: the `init` value such that crc24(pdu, init) == crc.
[[nodiscard]] std::uint32_t crc24_reverse(BytesView pdu, std::uint32_t crc) noexcept;

/// CRCInit used on advertising channels.
constexpr std::uint32_t kAdvertisingCrcInit = 0x555555;

}  // namespace ble::phy
