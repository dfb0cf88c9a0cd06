#include "phy/frame.hpp"

#include <cstring>

#include "phy/crc.hpp"
#include "phy/spec.hpp"

namespace ble::phy {

bool RawFrame::crc_ok(std::uint32_t crc_init) const noexcept {
    return crc24(pdu, crc_init) == crc;
}

namespace {
sim::AirFrame air_frame(Bytes bytes, Mode mode) {
    sim::AirFrame frame;
    frame.bytes = std::move(bytes);
    frame.preamble_time = preamble_time(mode);
    frame.byte_time = byte_time(mode);
    frame.sync_bytes = kAccessAddressBytes;  // a hit there kills sync
    return frame;
}

void put_le(std::uint8_t* out, std::uint32_t value, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}
}  // namespace

sim::AirFrame make_air_frame(std::uint32_t access_address, BytesView pdu,
                             std::uint32_t crc_init, Mode mode) {
    ByteWriter w(kAccessAddressBytes + pdu.size() + kCrcBytes);
    w.write_u32(access_address);
    w.write_bytes(pdu);
    w.write_u24(crc24(pdu, crc_init));
    return air_frame(w.take(), mode);
}

sim::AirFrame make_air_frame(Bytes buffer, std::uint32_t access_address,
                             std::array<std::uint8_t, 2> header, BytesView payload,
                             std::uint32_t crc_init, Mode mode) {
    const std::size_t pdu_len = kPduHeaderBytes + payload.size();
    buffer.resize(kAccessAddressBytes + pdu_len + kCrcBytes);
    std::uint8_t* out = buffer.data();
    put_le(out, access_address, kAccessAddressBytes);
    out[kAccessAddressBytes] = header[0];
    out[kAccessAddressBytes + 1] = header[1];
    if (!payload.empty()) {
        std::memcpy(out + kAccessAddressBytes + kPduHeaderBytes, payload.data(), payload.size());
    }
    const BytesView pdu(out + kAccessAddressBytes, pdu_len);
    put_le(out + kAccessAddressBytes + pdu_len, crc24(pdu, crc_init), kCrcBytes);
    return air_frame(std::move(buffer), mode);
}

std::optional<RawFrame> split_frame(BytesView bytes) noexcept {
    // AA + PDU header + payload (len from the header's second byte) + CRC.
    if (bytes.size() < kAccessAddressBytes + kPduHeaderBytes + kCrcBytes)
        return std::nullopt;
    ByteReader r(bytes);
    RawFrame out;
    out.access_address = *r.read_u32();
    const std::size_t pdu_len = kPduHeaderBytes + bytes[kAccessAddressBytes + 1];
    if (r.remaining() != pdu_len + kCrcBytes) return std::nullopt;
    out.pdu = *r.read_bytes(pdu_len);  // a view: nothing is copied
    out.crc = *r.read_u24();
    return out;
}

}  // namespace ble::phy
