#include "dongle/protocol.hpp"

namespace injectable::dongle {

using ble::ByteReader;
using ble::Bytes;
using ble::BytesView;
using ble::ByteWriter;

namespace {
Bytes serialize_frame(std::uint8_t type, BytesView payload) {
    ByteWriter w(3 + payload.size());
    w.write_u8(type);
    w.write_u16(static_cast<std::uint16_t>(payload.size()));
    w.write_bytes(payload);
    return w.take();
}

std::optional<std::pair<std::uint8_t, BytesView>> parse_frame(BytesView wire) noexcept {
    ByteReader r(wire);
    const auto type = r.read_u8();
    const auto length = r.read_u16();
    if (!type || !length || r.remaining() != *length) return std::nullopt;
    return std::pair{*type, r.read_rest()};
}
}  // namespace

Bytes Command::serialize() const {
    return serialize_frame(static_cast<std::uint8_t>(type), payload);
}

std::optional<Command> Command::parse(BytesView wire) {
    const auto frame = parse_frame(wire);
    if (!frame) return std::nullopt;
    return Command{static_cast<CommandType>(frame->first),
                   Bytes(frame->second.begin(), frame->second.end())};
}

Bytes Notification::serialize() const {
    return serialize_frame(static_cast<std::uint8_t>(type), payload);
}

std::optional<Notification> Notification::parse(BytesView wire) {
    const auto frame = parse_frame(wire);
    if (!frame) return std::nullopt;
    return Notification{static_cast<NotificationType>(frame->first),
                        Bytes(frame->second.begin(), frame->second.end())};
}

void write_sniffed_connection(ByteWriter& w, const SniffedConnection& conn) {
    w.write_u32(conn.params.access_address);
    w.write_u24(conn.params.crc_init);
    w.write_u8(conn.params.win_size);
    w.write_u16(conn.params.win_offset);
    w.write_u16(conn.params.hop_interval);
    w.write_u16(conn.params.latency);
    w.write_u16(conn.params.timeout);
    conn.params.channel_map.write_to(w);
    w.write_u8(conn.params.hop_increment);
    w.write_u8(conn.params.master_sca);
    w.write_u64(static_cast<std::uint64_t>(conn.time_reference));
    w.write_u8(conn.from_connect_req ? 1 : 0);
    w.write_u8(conn.recovered_unmapped_channel);
    w.write_u8(conn.params.use_csa2 ? 1 : 0);
}

std::optional<SniffedConnection> read_sniffed_connection(ByteReader& r) {
    SniffedConnection conn;
    const auto aa = r.read_u32();
    if (!aa) return std::nullopt;
    conn.params.access_address = *aa;
    conn.params.crc_init = r.read_u24().value_or(0);
    conn.params.win_size = r.read_u8().value_or(0);
    conn.params.win_offset = r.read_u16().value_or(0);
    conn.params.hop_interval = r.read_u16().value_or(0);
    conn.params.latency = r.read_u16().value_or(0);
    conn.params.timeout = r.read_u16().value_or(0);
    conn.params.channel_map = ble::link::ChannelMap::read_from(r);
    conn.params.hop_increment = r.read_u8().value_or(0);
    conn.params.master_sca = r.read_u8().value_or(0);
    conn.time_reference = static_cast<ble::TimePoint>(r.read_u64().value_or(0));
    conn.from_connect_req = r.read_u8().value_or(1) != 0;
    conn.recovered_unmapped_channel = r.read_u8().value_or(0);
    conn.params.use_csa2 = r.read_u8().value_or(0) != 0;
    if (!r.ok()) return std::nullopt;
    return conn;
}

void write_sniffed_packet(ByteWriter& w, const SniffedPacket& packet) {
    w.write_u16(packet.event_counter);
    w.write_u8(packet.sender == SniffedPacket::Sender::kMaster ? 0 : 1);
    w.write_u8(packet.crc_ok ? 1 : 0);
    w.write_u64(static_cast<std::uint64_t>(packet.start));
    w.write_u64(static_cast<std::uint64_t>(packet.end));
    w.write_u8(packet.channel);
    const ble::Bytes pdu = packet.pdu.serialize();
    w.write_u16(static_cast<std::uint16_t>(pdu.size()));
    w.write_bytes(pdu);
}

std::optional<SniffedPacket> read_sniffed_packet(ByteReader& r) {
    SniffedPacket packet;
    const auto counter = r.read_u16();
    if (!counter) return std::nullopt;
    packet.event_counter = *counter;
    packet.sender = r.read_u8().value_or(0) == 0 ? SniffedPacket::Sender::kMaster
                                                 : SniffedPacket::Sender::kSlave;
    packet.crc_ok = r.read_u8().value_or(0) != 0;
    packet.start = static_cast<ble::TimePoint>(r.read_u64().value_or(0));
    packet.end = static_cast<ble::TimePoint>(r.read_u64().value_or(0));
    packet.channel = r.read_u8().value_or(0);
    const auto pdu_len = r.read_u16();
    if (!pdu_len) return std::nullopt;
    const auto pdu = r.read_bytes(*pdu_len);
    if (!pdu) return std::nullopt;
    const auto parsed = ble::link::DataPdu::parse(*pdu);
    if (parsed) packet.pdu = *parsed;
    return packet;
}

}  // namespace injectable::dongle
