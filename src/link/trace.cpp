#include "link/trace.hpp"

#include <cstdio>

#include "common/hex.hpp"
#include "link/adv_pdu.hpp"
#include "link/control_pdu.hpp"
#include "link/pdu.hpp"
#include "phy/access_address.hpp"
#include "phy/frame.hpp"

namespace ble::link {

namespace {
const char* adv_type_name(AdvPduType type) {
    switch (type) {
        case AdvPduType::kAdvInd: return "ADV_IND";
        case AdvPduType::kAdvDirectInd: return "ADV_DIRECT_IND";
        case AdvPduType::kAdvNonconnInd: return "ADV_NONCONN_IND";
        case AdvPduType::kScanReq: return "SCAN_REQ";
        case AdvPduType::kScanRsp: return "SCAN_RSP";
        case AdvPduType::kConnectReq: return "CONNECT_REQ";
        case AdvPduType::kAdvScanInd: return "ADV_SCAN_IND";
    }
    return "ADV_UNKNOWN";
}

/// CONNECT_REQ carries every parameter the attacker needs (paper Table II) —
/// surface the ones an analyst greps for when validating a capture.
std::string connect_req_detail(const AdvPduView& pdu) {
    const auto req = ConnectReqPdu::parse(pdu);
    if (!req) return {};
    char buf[96];
    std::snprintf(buf, sizeof(buf), " AA=%08x hop=%u inc=%u win=%u+%u", req->params.access_address,
                  req->params.hop_interval, req->params.hop_increment, req->params.win_size,
                  req->params.win_offset);
    return buf;
}

/// Procedure payload detail for the control PDUs the attack scenarios use:
/// the paper's injections hinge on instants (Fig. 2/7), so name them.
std::string control_detail(const ControlPdu& control) {
    char buf[96];
    switch (control.opcode) {
        case ControlOpcode::kConnectionUpdateInd:
            if (const auto update = ConnectionUpdateInd::parse(control)) {
                std::snprintf(buf, sizeof(buf), " interval=%u instant=%u", update->interval,
                              update->instant);
                return buf;
            }
            break;
        case ControlOpcode::kChannelMapInd:
            if (const auto map = ChannelMapInd::parse(control)) {
                std::snprintf(buf, sizeof(buf), " instant=%u", map->instant);
                return buf;
            }
            break;
        case ControlOpcode::kTerminateInd:
            if (const auto term = TerminateInd::parse(control)) {
                std::snprintf(buf, sizeof(buf), " error=0x%02x", term->error_code);
                return buf;
            }
            break;
        default: break;
    }
    return {};
}
}  // namespace

std::string describe_frame(BytesView bytes) {
    const auto raw = phy::split_frame(bytes);
    if (!raw) return "malformed (" + std::to_string(bytes.size()) + "B)";

    char buf[160];
    if (raw->access_address == phy::kAdvertisingAccessAddress) {
        const auto pdu = AdvPduView::parse(raw->pdu);
        if (!pdu) return "ADV malformed";
        std::string extra;
        if (pdu->type == AdvPduType::kConnectReq) extra = connect_req_detail(*pdu);
        std::snprintf(buf, sizeof(buf), "%s (%zuB)%s%s", adv_type_name(pdu->type),
                      pdu->payload.size(), pdu->ch_sel ? " ChSel" : "", extra.c_str());
        return buf;
    }

    const auto pdu = DataPduView::parse(raw->pdu);
    if (!pdu) return "DATA malformed";
    std::string detail;
    if (pdu->is_control()) {
        if (const auto control = ControlPdu::parse(pdu->payload)) {
            detail = control_opcode_name(control->opcode);
            detail += control_detail(*control);
        } else {
            detail = "LL control (empty)";
        }
    } else if (pdu->is_empty()) {
        detail = "empty PDU";
    } else {
        detail = "L2CAP ";
        detail += pdu->llid == Llid::kDataStart ? "start" : "cont";
        detail += " " + std::to_string(pdu->payload.size()) + "B";
    }
    std::snprintf(buf, sizeof(buf), "DATA sn=%d nesn=%d%s %s", pdu->sn ? 1 : 0,
                  pdu->nesn ? 1 : 0, pdu->md ? " MD" : "", detail.c_str());
    return buf;
}

}  // namespace ble::link
