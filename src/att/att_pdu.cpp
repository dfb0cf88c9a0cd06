#include "att/att_pdu.hpp"

namespace ble::att {

const char* opcode_name(Opcode opcode) noexcept {
    switch (opcode) {
        case Opcode::kErrorRsp: return "Error Response";
        case Opcode::kExchangeMtuReq: return "Exchange MTU Request";
        case Opcode::kExchangeMtuRsp: return "Exchange MTU Response";
        case Opcode::kFindInformationReq: return "Find Information Request";
        case Opcode::kFindInformationRsp: return "Find Information Response";
        case Opcode::kReadByTypeReq: return "Read By Type Request";
        case Opcode::kReadByTypeRsp: return "Read By Type Response";
        case Opcode::kReadReq: return "Read Request";
        case Opcode::kReadRsp: return "Read Response";
        case Opcode::kReadBlobReq: return "Read Blob Request";
        case Opcode::kReadBlobRsp: return "Read Blob Response";
        case Opcode::kReadByGroupTypeReq: return "Read By Group Type Request";
        case Opcode::kReadByGroupTypeRsp: return "Read By Group Type Response";
        case Opcode::kWriteReq: return "Write Request";
        case Opcode::kWriteRsp: return "Write Response";
        case Opcode::kWriteCmd: return "Write Command";
        case Opcode::kHandleValueNotification: return "Handle Value Notification";
        case Opcode::kHandleValueIndication: return "Handle Value Indication";
        case Opcode::kHandleValueConfirmation: return "Handle Value Confirmation";
    }
    return "Unknown";
}

Bytes AttPdu::serialize() const {
    ByteWriter w(1 + params.size());
    w.write_u8(static_cast<std::uint8_t>(opcode));
    w.write_bytes(params);
    return w.take();
}

std::optional<AttPdu> AttPdu::parse(BytesView data) {
    if (data.empty()) return std::nullopt;
    AttPdu out;
    out.opcode = static_cast<Opcode>(data[0]);
    out.params.assign(data.begin() + 1, data.end());
    return out;
}

AttPdu make_error_rsp(Opcode request, std::uint16_t handle, ErrorCode error) {
    ByteWriter w(4);
    w.write_u8(static_cast<std::uint8_t>(request));
    w.write_u16(handle);
    w.write_u8(static_cast<std::uint8_t>(error));
    return AttPdu{Opcode::kErrorRsp, w.take()};
}

std::optional<ErrorRsp> ErrorRsp::parse(const AttPdu& pdu) noexcept {
    if (pdu.opcode != Opcode::kErrorRsp || pdu.params.size() != 4) return std::nullopt;
    ByteReader r(pdu.params);
    ErrorRsp out;
    out.request = static_cast<Opcode>(*r.read_u8());
    out.handle = *r.read_u16();
    out.error = static_cast<ErrorCode>(*r.read_u8());
    return out;
}

namespace {
AttPdu make_u16(Opcode opcode, std::uint16_t value) {
    ByteWriter w(2);
    w.write_u16(value);
    return AttPdu{opcode, w.take()};
}

AttPdu make_handle_value(Opcode opcode, std::uint16_t handle, BytesView value) {
    ByteWriter w(2 + value.size());
    w.write_u16(handle);
    w.write_bytes(value);
    return AttPdu{opcode, w.take()};
}
}  // namespace

AttPdu make_exchange_mtu_req(std::uint16_t mtu) { return make_u16(Opcode::kExchangeMtuReq, mtu); }
AttPdu make_exchange_mtu_rsp(std::uint16_t mtu) { return make_u16(Opcode::kExchangeMtuRsp, mtu); }

AttPdu make_read_req(std::uint16_t handle) { return make_u16(Opcode::kReadReq, handle); }

AttPdu make_read_rsp(BytesView value) {
    return AttPdu{Opcode::kReadRsp, Bytes(value.begin(), value.end())};
}

AttPdu make_write_req(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kWriteReq, handle, value);
}

AttPdu make_write_rsp() { return AttPdu{Opcode::kWriteRsp, {}}; }

AttPdu make_write_cmd(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kWriteCmd, handle, value);
}

AttPdu make_notification(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kHandleValueNotification, handle, value);
}

AttPdu make_indication(std::uint16_t handle, BytesView value) {
    return make_handle_value(Opcode::kHandleValueIndication, handle, value);
}

AttPdu make_confirmation() { return AttPdu{Opcode::kHandleValueConfirmation, {}}; }

std::optional<HandleValue> HandleValue::parse(const AttPdu& pdu) {
    if (pdu.params.size() < 2) return std::nullopt;
    ByteReader r(pdu.params);
    HandleValue out;
    out.handle = *r.read_u16();
    const BytesView value = r.read_rest();
    out.value.assign(value.begin(), value.end());
    return out;
}

AttPdu make_find_information_req(std::uint16_t start, std::uint16_t end) {
    ByteWriter w(4);
    w.write_u16(start);
    w.write_u16(end);
    return AttPdu{Opcode::kFindInformationReq, w.take()};
}

namespace {
AttPdu make_range_type(Opcode opcode, std::uint16_t start, std::uint16_t end,
                       const Uuid& type) {
    ByteWriter w(4 + 16);
    w.write_u16(start);
    w.write_u16(end);
    type.write_to(w);
    return AttPdu{opcode, w.take()};
}
}  // namespace

AttPdu make_read_by_type_req(std::uint16_t start, std::uint16_t end, const Uuid& type) {
    return make_range_type(Opcode::kReadByTypeReq, start, end, type);
}

AttPdu make_read_by_group_type_req(std::uint16_t start, std::uint16_t end, const Uuid& type) {
    return make_range_type(Opcode::kReadByGroupTypeReq, start, end, type);
}

std::optional<RangeRequest> RangeRequest::parse(const AttPdu& pdu) noexcept {
    if (pdu.params.size() < 4) return std::nullopt;
    ByteReader r(pdu.params);
    RangeRequest out;
    out.start = *r.read_u16();
    out.end = *r.read_u16();
    const std::size_t rest = r.remaining();
    if (rest == 2 || rest == 16) {
        out.type = Uuid::read_from(r, rest);
        if (!out.type) return std::nullopt;
    } else if (rest != 0) {
        return std::nullopt;
    }
    return out;
}

}  // namespace ble::att
