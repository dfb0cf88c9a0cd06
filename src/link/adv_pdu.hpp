// Advertising-channel payloads, most importantly CONNECT_REQ (paper Table II)
// — the packet that carries every parameter the attacker needs.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "link/address.hpp"
#include "link/channel_map.hpp"
#include "link/pdu.hpp"

namespace ble::link {

/// Sleep-clock-accuracy field encoding (3 bits) -> worst-case ppm.
[[nodiscard]] double sca_field_to_ppm(std::uint8_t sca_field) noexcept;
/// Smallest SCA field whose range covers `ppm`.
[[nodiscard]] std::uint8_t ppm_to_sca_field(double ppm) noexcept;

/// Everything negotiated in CONNECT_REQ (Table II minus the two addresses).
/// This is the full state an attacker must know to join a connection.
struct ConnectionParams {
    std::uint32_t access_address = 0;
    std::uint32_t crc_init = 0;       // 24 bits
    std::uint8_t win_size = 1;        // * 1.25 ms
    std::uint16_t win_offset = 0;     // * 1.25 ms
    std::uint16_t hop_interval = 36;  // * 1.25 ms (the paper's "Hop Interval")
    std::uint16_t latency = 0;        // slave latency, in events
    std::uint16_t timeout = 100;      // supervision timeout, * 10 ms
    ChannelMap channel_map{};
    std::uint8_t hop_increment = 5;   // 5 bits, CSA#1 hop
    std::uint8_t master_sca = 5;      // 3-bit SCA field (5 => 31-50 ppm)
    /// Channel Selection Algorithm #2 in use. Not a CONNECT_REQ field: it is
    /// negotiated through the ChSel header bits of ADV_IND and CONNECT_REQ
    /// (both set => CSA#2), which any sniffer observes just as easily.
    bool use_csa2 = false;

    [[nodiscard]] Duration interval() const noexcept {
        return connection_interval(hop_interval);
    }
    [[nodiscard]] Duration supervision_timeout() const noexcept {
        return static_cast<Duration>(timeout) * kUnit10ms;
    }
    [[nodiscard]] double master_sca_ppm() const noexcept {
        return sca_field_to_ppm(master_sca);
    }
};

struct ConnectReqPdu {
    DeviceAddress initiator;
    DeviceAddress advertiser;
    ConnectionParams params;

    [[nodiscard]] AdvPdu to_adv_pdu() const;
    static std::optional<ConnectReqPdu> parse(const AdvPduView& pdu) noexcept;
};

/// ADV_IND / ADV_NONCONN_IND / SCAN_RSP: advertiser address + AD payload.
struct AdvDataPdu {
    AdvPduType type = AdvPduType::kAdvInd;
    DeviceAddress advertiser;
    Bytes data;  ///< AD structures (we treat them opaquely; name helper below)

    [[nodiscard]] AdvPdu to_adv_pdu() const;
    /// Copies the AD payload.
    static std::optional<AdvDataPdu> parse(const AdvPduView& pdu);
};

/// Builds the AD structure list for a complete local name (type 0x09).
[[nodiscard]] Bytes make_adv_name(const std::string& name);
/// Extracts a complete/shortened local name from AD structures, if present.
[[nodiscard]] std::optional<std::string> parse_adv_name(BytesView ad_data);

}  // namespace ble::link
