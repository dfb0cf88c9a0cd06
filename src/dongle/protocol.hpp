// The attack dongle's wire protocol (paper §V-E: "The dongle communicates
// with the Host using a custom USB protocol, allowing to transmit commands to
// the embedded software" ... "if the injection attempt succeeds, a
// notification is transmitted to the Host indicating the number of injection
// attempts before a successful injection").
//
// Frames are [type u8 | length u16 | payload], little-endian, both ways.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "core/session.hpp"

namespace injectable::dongle {

enum class CommandType : std::uint8_t {
    kVersion = 0x01,
    kStartAdvSniffer = 0x02,   ///< camp on advertising channels
    kStartRecovery = 0x03,     ///< recover an already-running connection
    kFollow = 0x04,            ///< follow the last detected connection
    kInject = 0x05,            ///< payload: llid u8 | max_attempts u16 | LL payload
    kStop = 0x06,
};

enum class NotificationType : std::uint8_t {
    kVersion = 0x81,
    kConnectionDetected = 0x82,  ///< payload: serialized SniffedConnection
    kPacket = 0x83,              ///< payload: serialized SniffedPacket
    kInjectionReport = 0x84,     ///< payload: attempt u16 | success u8 | timing u8 | flow u8
    kInjectionDone = 0x85,       ///< payload: success u8 | attempts u16
    kConnectionLost = 0x86,
    kError = 0x87,               ///< payload: ASCII message
};

struct Command {
    CommandType type{};
    ble::Bytes payload;

    [[nodiscard]] ble::Bytes serialize() const;
    static std::optional<Command> parse(ble::BytesView wire);
};

struct Notification {
    NotificationType type{};
    ble::Bytes payload;

    [[nodiscard]] ble::Bytes serialize() const;
    static std::optional<Notification> parse(ble::BytesView wire);
};

// Payload codecs shared by both ends.
void write_sniffed_connection(ble::ByteWriter& w, const SniffedConnection& conn);
[[nodiscard]] std::optional<SniffedConnection> read_sniffed_connection(ble::ByteReader& r);

void write_sniffed_packet(ble::ByteWriter& w, const SniffedPacket& packet);
[[nodiscard]] std::optional<SniffedPacket> read_sniffed_packet(ble::ByteReader& r);

}  // namespace injectable::dongle
