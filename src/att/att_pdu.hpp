// ATT protocol PDUs (Vol 3, Part F) — the application layer the paper's
// scenario A injects: "injecting ATT Requests allows the attacker to interact
// with the ATT server, which is used in BLE as a generic application layer."
#pragma once

#include <cstdint>
#include <optional>

#include "att/uuid.hpp"
#include "common/bytes.hpp"

namespace ble::att {

enum class Opcode : std::uint8_t {
    kErrorRsp = 0x01,
    kExchangeMtuReq = 0x02,
    kExchangeMtuRsp = 0x03,
    kFindInformationReq = 0x04,
    kFindInformationRsp = 0x05,
    kReadByTypeReq = 0x08,
    kReadByTypeRsp = 0x09,
    kReadReq = 0x0A,
    kReadRsp = 0x0B,
    kReadBlobReq = 0x0C,
    kReadBlobRsp = 0x0D,
    kReadByGroupTypeReq = 0x10,
    kReadByGroupTypeRsp = 0x11,
    kWriteReq = 0x12,
    kWriteRsp = 0x13,
    kWriteCmd = 0x52,
    kHandleValueNotification = 0x1B,
    kHandleValueIndication = 0x1D,
    kHandleValueConfirmation = 0x1E,
};

[[nodiscard]] const char* opcode_name(Opcode opcode) noexcept;

enum class ErrorCode : std::uint8_t {
    kInvalidHandle = 0x01,
    kReadNotPermitted = 0x02,
    kWriteNotPermitted = 0x03,
    kInvalidPdu = 0x04,
    kRequestNotSupported = 0x06,
    kAttributeNotFound = 0x0A,
    kUnlikelyError = 0x0E,
    kInvalidAttributeValueLength = 0x0D,
};

/// Generic ATT PDU: opcode + parameters. Typed helpers below.
struct AttPdu {
    Opcode opcode{};
    Bytes params;

    [[nodiscard]] Bytes serialize() const;
    /// Copies the parameters: an AttPdu owns its bytes.
    static std::optional<AttPdu> parse(BytesView data);
};

// --- typed builders/parsers for the PDUs the stack and attacks use ---

[[nodiscard]] AttPdu make_error_rsp(Opcode request, std::uint16_t handle, ErrorCode error);
struct ErrorRsp {
    Opcode request{};
    std::uint16_t handle = 0;
    ErrorCode error{};
    static std::optional<ErrorRsp> parse(const AttPdu& pdu) noexcept;
};

[[nodiscard]] AttPdu make_exchange_mtu_req(std::uint16_t mtu);
[[nodiscard]] AttPdu make_exchange_mtu_rsp(std::uint16_t mtu);

[[nodiscard]] AttPdu make_read_req(std::uint16_t handle);
[[nodiscard]] AttPdu make_read_rsp(BytesView value);

[[nodiscard]] AttPdu make_write_req(std::uint16_t handle, BytesView value);
[[nodiscard]] AttPdu make_write_rsp();
[[nodiscard]] AttPdu make_write_cmd(std::uint16_t handle, BytesView value);

[[nodiscard]] AttPdu make_notification(std::uint16_t handle, BytesView value);
[[nodiscard]] AttPdu make_indication(std::uint16_t handle, BytesView value);
[[nodiscard]] AttPdu make_confirmation();

struct HandleValue {
    std::uint16_t handle = 0;
    Bytes value;
    /// Parses ReadReq / WriteReq / WriteCmd / Notification / Indication.
    static std::optional<HandleValue> parse(const AttPdu& pdu);
};

[[nodiscard]] AttPdu make_find_information_req(std::uint16_t start, std::uint16_t end);
[[nodiscard]] AttPdu make_read_by_type_req(std::uint16_t start, std::uint16_t end,
                                           const Uuid& type);
[[nodiscard]] AttPdu make_read_by_group_type_req(std::uint16_t start, std::uint16_t end,
                                                 const Uuid& type);

struct RangeRequest {
    std::uint16_t start = 0;
    std::uint16_t end = 0;
    std::optional<Uuid> type;  // set for *ByType / *ByGroupType
    static std::optional<RangeRequest> parse(const AttPdu& pdu) noexcept;
};

}  // namespace ble::att
