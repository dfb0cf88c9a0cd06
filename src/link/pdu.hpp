// Link-Layer PDU headers (Vol 6, Part B, §2.3 / §2.4).
//
// The two header bits at the heart of the paper's Eq. 6 — SN and NESN — live
// in the first byte of every data-channel PDU.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace ble::link {

/// LLID field of a data-channel PDU header.
enum class Llid : std::uint8_t {
    kReserved = 0b00,
    kDataContinuation = 0b01,  ///< L2CAP continuation, or empty PDU (len 0)
    kDataStart = 0b10,         ///< start of an L2CAP message
    kControl = 0b11,           ///< LL control PDU
};

struct DataPdu;

/// Header fields + payload *view* of a data-channel PDU: what the receive
/// paths parse (the payload borrows the received frame, so it is valid only
/// during the dispatch that delivered it) and what the transmit paths write
/// (phy::make_air_frame(buffer, aa, header(), payload, crc_init)).
struct DataPduView {
    Llid llid = Llid::kDataContinuation;
    bool nesn = false;
    bool sn = false;
    bool md = false;
    BytesView payload;

    [[nodiscard]] bool is_empty() const noexcept {
        return llid == Llid::kDataContinuation && payload.empty();
    }
    [[nodiscard]] bool is_control() const noexcept { return llid == Llid::kControl; }

    /// The two header bytes: LLID/NESN/SN/MD flags, then the payload length.
    [[nodiscard]] std::array<std::uint8_t, 2> header() const noexcept;
    /// Parses a PDU without copying; nullopt on truncation or header/length
    /// mismatch.
    static std::optional<DataPduView> parse(BytesView pdu) noexcept;
    /// An owning copy, for callers that keep the PDU past the dispatch.
    [[nodiscard]] DataPdu to_owned() const;
};

/// Header + payload of a data-channel PDU, owning its payload.
struct DataPdu {
    Llid llid = Llid::kDataContinuation;
    bool nesn = false;
    bool sn = false;
    bool md = false;  ///< More Data: keeps the connection event open
    Bytes payload;

    [[nodiscard]] bool is_empty() const noexcept {
        return llid == Llid::kDataContinuation && payload.empty();
    }
    [[nodiscard]] bool is_control() const noexcept { return llid == Llid::kControl; }

    /// Borrows the payload (like std::string -> std::string_view).
    operator DataPduView() const noexcept {
        return DataPduView{llid, nesn, sn, md, payload};
    }

    /// Serializes header (2 bytes) + payload into a fresh buffer.
    [[nodiscard]] Bytes serialize() const;
    /// Parses a PDU, copying the payload; nullopt on truncation or
    /// header/length mismatch.
    static std::optional<DataPdu> parse(BytesView pdu);

    static DataPdu empty(bool nesn, bool sn) {
        DataPdu p;
        p.llid = Llid::kDataContinuation;
        p.nesn = nesn;
        p.sn = sn;
        return p;
    }
};

/// Advertising-channel PDU types (4-bit header field).
enum class AdvPduType : std::uint8_t {
    kAdvInd = 0b0000,
    kAdvDirectInd = 0b0001,
    kAdvNonconnInd = 0b0010,
    kScanReq = 0b0011,
    kScanRsp = 0b0100,
    kConnectReq = 0b0101,
    kAdvScanInd = 0b0110,
};

/// Header fields + payload view of an advertising-channel PDU (see
/// DataPduView for the lifetime rule).
struct AdvPduView {
    AdvPduType type = AdvPduType::kAdvInd;
    /// ChSel header bit: the sender supports Channel Selection Algorithm #2.
    /// Set on both ADV_IND and CONNECT_REQ => the connection uses CSA#2.
    bool ch_sel = false;
    bool tx_add = false;  ///< advertiser address is random
    bool rx_add = false;  ///< target address is random
    BytesView payload;

    /// The two header bytes: type/ChSel/TxAdd/RxAdd flags, then the length.
    [[nodiscard]] std::array<std::uint8_t, 2> header() const noexcept;
    /// Parses a PDU without copying; nullopt on truncation or length mismatch.
    static std::optional<AdvPduView> parse(BytesView pdu) noexcept;
};

/// Header + payload of an advertising-channel PDU, owning its payload.
struct AdvPdu {
    AdvPduType type = AdvPduType::kAdvInd;
    bool ch_sel = false;  ///< see AdvPduView::ch_sel
    bool tx_add = false;  ///< advertiser address is random
    bool rx_add = false;  ///< target address is random
    Bytes payload;

    /// Borrows the payload (like std::string -> std::string_view).
    operator AdvPduView() const noexcept {
        return AdvPduView{type, ch_sel, tx_add, rx_add, payload};
    }

    [[nodiscard]] Bytes serialize() const;
    /// Parses a PDU, copying the payload.
    static std::optional<AdvPdu> parse(BytesView pdu);
};

}  // namespace ble::link
