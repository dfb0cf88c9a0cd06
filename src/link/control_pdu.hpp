// LL Control PDUs (Vol 6, Part B, §2.4.2).
//
// Three of these are the paper's attack payloads:
//  * LL_TERMINATE_IND       — scenario B, evicting the slave,
//  * LL_CONNECTION_UPDATE_IND — scenarios C/D, desynchronising the master,
//  * LL_CHANNEL_MAP_IND     — same family, steering the hopping sequence.
// The rest are implemented so the emulated stacks answer control traffic the
// way real devices do (feature/version exchange, ping, clock accuracy...).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "link/channel_map.hpp"

namespace ble::link {

enum class ControlOpcode : std::uint8_t {
    kConnectionUpdateInd = 0x00,
    kChannelMapInd = 0x01,
    kTerminateInd = 0x02,
    kEncReq = 0x03,
    kEncRsp = 0x04,
    kStartEncReq = 0x05,
    kStartEncRsp = 0x06,
    kUnknownRsp = 0x07,
    kFeatureReq = 0x08,
    kFeatureRsp = 0x09,
    kPauseEncReq = 0x0A,
    kPauseEncRsp = 0x0B,
    kVersionInd = 0x0C,
    kRejectInd = 0x0D,
    kSlaveFeatureReq = 0x0E,
    kConnectionParamReq = 0x0F,
    kConnectionParamRsp = 0x10,
    kRejectExtInd = 0x11,
    kPingReq = 0x12,
    kPingRsp = 0x13,
    kLengthReq = 0x14,
    kLengthRsp = 0x15,
    kPhyReq = 0x16,
    kPhyRsp = 0x17,
    kPhyUpdateInd = 0x18,
    kMinUsedChannelsInd = 0x19,
    kClockAccuracyReq = 0x1D,
    kClockAccuracyRsp = 0x1E,
};

[[nodiscard]] const char* control_opcode_name(ControlOpcode opcode) noexcept;

/// A raw control PDU payload: opcode byte + CtrData.
struct ControlPdu {
    ControlOpcode opcode{};
    Bytes ctr_data;

    /// Full LL payload ([opcode | CtrData]) to place in a DataPdu with
    /// Llid::kControl.
    [[nodiscard]] Bytes serialize() const;
    /// Copies CtrData: a ControlPdu owns its bytes.
    static std::optional<ControlPdu> parse(BytesView payload);
};

/// LL_CONNECTION_UPDATE_IND — the paper's Fig. 2/7 payload.
struct ConnectionUpdateInd {
    std::uint8_t win_size = 1;
    std::uint16_t win_offset = 0;
    std::uint16_t interval = 36;  ///< new Hop Interval
    std::uint16_t latency = 0;
    std::uint16_t timeout = 100;
    std::uint16_t instant = 0;    ///< applied when connEventCount == instant

    [[nodiscard]] ControlPdu to_control() const;
    static std::optional<ConnectionUpdateInd> parse(const ControlPdu& pdu) noexcept;
};

struct ChannelMapInd {
    ChannelMap map{};
    std::uint16_t instant = 0;

    [[nodiscard]] ControlPdu to_control() const;
    static std::optional<ChannelMapInd> parse(const ControlPdu& pdu) noexcept;
};

struct TerminateInd {
    std::uint8_t error_code = 0x13;  ///< "remote user terminated connection"

    [[nodiscard]] ControlPdu to_control() const;
    static std::optional<TerminateInd> parse(const ControlPdu& pdu) noexcept;
};

/// LL_ENC_REQ: master's half of the session-key material.
struct EncReq {
    std::uint64_t rand = 0;
    std::uint16_t ediv = 0;
    std::array<std::uint8_t, 8> skd_m{};
    std::array<std::uint8_t, 4> iv_m{};

    [[nodiscard]] ControlPdu to_control() const;
    static std::optional<EncReq> parse(const ControlPdu& pdu) noexcept;
};

/// LL_ENC_RSP: slave's half.
struct EncRsp {
    std::array<std::uint8_t, 8> skd_s{};
    std::array<std::uint8_t, 4> iv_s{};

    [[nodiscard]] ControlPdu to_control() const;
    static std::optional<EncRsp> parse(const ControlPdu& pdu) noexcept;
};

struct FeatureSet {
    std::uint64_t bits = 0;

    [[nodiscard]] ControlPdu to_control(ControlOpcode opcode) const;
    static std::optional<FeatureSet> parse(const ControlPdu& pdu) noexcept;
};

struct VersionInd {
    std::uint8_t version = 0x09;       // 5.0
    std::uint16_t company_id = 0x0059; // Nordic Semiconductor (the paper's chip)
    std::uint16_t subversion = 0;

    [[nodiscard]] ControlPdu to_control() const;
    static std::optional<VersionInd> parse(const ControlPdu& pdu) noexcept;
};

/// LL_CLOCK_ACCURACY_REQ / _RSP: advertises the sender's SCA — one of the
/// places the paper's attacker reads the master's clock accuracy from.
struct ClockAccuracy {
    std::uint8_t sca = 0;

    [[nodiscard]] ControlPdu to_control(ControlOpcode opcode) const;
    static std::optional<ClockAccuracy> parse(const ControlPdu& pdu) noexcept;
};

struct UnknownRsp {
    std::uint8_t unknown_type = 0;

    [[nodiscard]] ControlPdu to_control() const;
    static std::optional<UnknownRsp> parse(const ControlPdu& pdu) noexcept;
};

}  // namespace ble::link
