// Serialization between logical Link-Layer frames and the simulation
// medium's opaque AirFrame (Table I of the paper: preamble | access address |
// PDU | CRC).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "phy/mode.hpp"
#include "sim/medium.hpp"

namespace ble::phy {

/// A frame as it appears after sync: access address + PDU + received CRC.
/// `pdu` is a view into the split buffer (normally sim::RxFrame::bytes), so
/// it is valid only while that buffer is: during the on_rx dispatch that
/// delivered it.  Copy the bytes to keep them.
struct RawFrame {
    std::uint32_t access_address = 0;
    BytesView pdu;
    std::uint32_t crc = 0;

    /// True if `crc` matches the CRC recomputed over `pdu` with `crc_init`.
    [[nodiscard]] bool crc_ok(std::uint32_t crc_init) const noexcept;
};

/// Builds an on-air frame: computes the CRC over the PDU with `crc_init` and
/// lays out AA | PDU | CRC with the PHY mode's timing.  Copies the PDU into a
/// fresh buffer; the stack's transmit paths use the overload below.
[[nodiscard]] sim::AirFrame make_air_frame(std::uint32_t access_address, BytesView pdu,
                                           std::uint32_t crc_init, Mode mode = Mode::kLe1M);

/// The same frame for the PDU `header | payload`, written straight into
/// `buffer` (normally one from the medium's frame pool: its capacity is
/// reused and its contents overwritten), with no intermediate PDU buffer.
/// Byte-identical to the overload above over the concatenated PDU.
[[nodiscard]] sim::AirFrame make_air_frame(Bytes buffer, std::uint32_t access_address,
                                           std::array<std::uint8_t, 2> header,
                                           BytesView payload, std::uint32_t crc_init,
                                           Mode mode = Mode::kLe1M);

/// Splits received bytes back into AA | PDU | CRC using the length field in
/// the PDU header (byte 1), without copying: the PDU is a view into `bytes`.
/// Returns nullopt for truncated/inconsistent buffers (e.g. a length byte
/// corrupted by a collision).
[[nodiscard]] std::optional<RawFrame> split_frame(BytesView bytes) noexcept;

}  // namespace ble::phy
