#include "link/control_pdu.hpp"

namespace ble::link {

const char* control_opcode_name(ControlOpcode opcode) noexcept {
    switch (opcode) {
        case ControlOpcode::kConnectionUpdateInd: return "LL_CONNECTION_UPDATE_IND";
        case ControlOpcode::kChannelMapInd: return "LL_CHANNEL_MAP_IND";
        case ControlOpcode::kTerminateInd: return "LL_TERMINATE_IND";
        case ControlOpcode::kEncReq: return "LL_ENC_REQ";
        case ControlOpcode::kEncRsp: return "LL_ENC_RSP";
        case ControlOpcode::kStartEncReq: return "LL_START_ENC_REQ";
        case ControlOpcode::kStartEncRsp: return "LL_START_ENC_RSP";
        case ControlOpcode::kUnknownRsp: return "LL_UNKNOWN_RSP";
        case ControlOpcode::kFeatureReq: return "LL_FEATURE_REQ";
        case ControlOpcode::kFeatureRsp: return "LL_FEATURE_RSP";
        case ControlOpcode::kPauseEncReq: return "LL_PAUSE_ENC_REQ";
        case ControlOpcode::kPauseEncRsp: return "LL_PAUSE_ENC_RSP";
        case ControlOpcode::kVersionInd: return "LL_VERSION_IND";
        case ControlOpcode::kRejectInd: return "LL_REJECT_IND";
        case ControlOpcode::kSlaveFeatureReq: return "LL_SLAVE_FEATURE_REQ";
        case ControlOpcode::kConnectionParamReq: return "LL_CONNECTION_PARAM_REQ";
        case ControlOpcode::kConnectionParamRsp: return "LL_CONNECTION_PARAM_RSP";
        case ControlOpcode::kRejectExtInd: return "LL_REJECT_EXT_IND";
        case ControlOpcode::kPingReq: return "LL_PING_REQ";
        case ControlOpcode::kPingRsp: return "LL_PING_RSP";
        case ControlOpcode::kLengthReq: return "LL_LENGTH_REQ";
        case ControlOpcode::kLengthRsp: return "LL_LENGTH_RSP";
        case ControlOpcode::kPhyReq: return "LL_PHY_REQ";
        case ControlOpcode::kPhyRsp: return "LL_PHY_RSP";
        case ControlOpcode::kPhyUpdateInd: return "LL_PHY_UPDATE_IND";
        case ControlOpcode::kMinUsedChannelsInd: return "LL_MIN_USED_CHANNELS_IND";
        case ControlOpcode::kClockAccuracyReq: return "LL_CLOCK_ACCURACY_REQ";
        case ControlOpcode::kClockAccuracyRsp: return "LL_CLOCK_ACCURACY_RSP";
    }
    return "LL_UNKNOWN";
}

Bytes ControlPdu::serialize() const {
    ByteWriter w(1 + ctr_data.size());
    w.write_u8(static_cast<std::uint8_t>(opcode));
    w.write_bytes(ctr_data);
    return w.take();
}

std::optional<ControlPdu> ControlPdu::parse(BytesView payload) {
    if (payload.empty()) return std::nullopt;
    ControlPdu out;
    out.opcode = static_cast<ControlOpcode>(payload[0]);
    out.ctr_data.assign(payload.begin() + 1, payload.end());
    return out;
}

ControlPdu ConnectionUpdateInd::to_control() const {
    ByteWriter w(11);
    w.write_u8(win_size);
    w.write_u16(win_offset);
    w.write_u16(interval);
    w.write_u16(latency);
    w.write_u16(timeout);
    w.write_u16(instant);
    return ControlPdu{ControlOpcode::kConnectionUpdateInd, w.take()};
}

std::optional<ConnectionUpdateInd> ConnectionUpdateInd::parse(const ControlPdu& pdu) noexcept {
    if (pdu.opcode != ControlOpcode::kConnectionUpdateInd || pdu.ctr_data.size() != 11) {
        return std::nullopt;
    }
    ByteReader r(pdu.ctr_data);
    ConnectionUpdateInd out;
    out.win_size = *r.read_u8();
    out.win_offset = *r.read_u16();
    out.interval = *r.read_u16();
    out.latency = *r.read_u16();
    out.timeout = *r.read_u16();
    out.instant = *r.read_u16();
    return out;
}

ControlPdu ChannelMapInd::to_control() const {
    ByteWriter w(7);
    map.write_to(w);
    w.write_u16(instant);
    return ControlPdu{ControlOpcode::kChannelMapInd, w.take()};
}

std::optional<ChannelMapInd> ChannelMapInd::parse(const ControlPdu& pdu) noexcept {
    if (pdu.opcode != ControlOpcode::kChannelMapInd || pdu.ctr_data.size() != 7) {
        return std::nullopt;
    }
    ByteReader r(pdu.ctr_data);
    ChannelMapInd out;
    out.map = ChannelMap::read_from(r);
    out.instant = *r.read_u16();
    return out;
}

ControlPdu TerminateInd::to_control() const {
    return ControlPdu{ControlOpcode::kTerminateInd, Bytes{error_code}};
}

std::optional<TerminateInd> TerminateInd::parse(const ControlPdu& pdu) noexcept {
    if (pdu.opcode != ControlOpcode::kTerminateInd || pdu.ctr_data.size() != 1) {
        return std::nullopt;
    }
    return TerminateInd{pdu.ctr_data[0]};
}

ControlPdu EncReq::to_control() const {
    ByteWriter w(22);
    w.write_u64(rand);
    w.write_u16(ediv);
    w.write_bytes(BytesView(skd_m.data(), skd_m.size()));
    w.write_bytes(BytesView(iv_m.data(), iv_m.size()));
    return ControlPdu{ControlOpcode::kEncReq, w.take()};
}

std::optional<EncReq> EncReq::parse(const ControlPdu& pdu) noexcept {
    if (pdu.opcode != ControlOpcode::kEncReq || pdu.ctr_data.size() != 22) return std::nullopt;
    ByteReader r(pdu.ctr_data);
    EncReq out;
    out.rand = *r.read_u64();
    out.ediv = *r.read_u16();
    auto skd = r.read_bytes(8);
    auto iv = r.read_bytes(4);
    std::copy(skd->begin(), skd->end(), out.skd_m.begin());
    std::copy(iv->begin(), iv->end(), out.iv_m.begin());
    return out;
}

ControlPdu EncRsp::to_control() const {
    ByteWriter w(12);
    w.write_bytes(BytesView(skd_s.data(), skd_s.size()));
    w.write_bytes(BytesView(iv_s.data(), iv_s.size()));
    return ControlPdu{ControlOpcode::kEncRsp, w.take()};
}

std::optional<EncRsp> EncRsp::parse(const ControlPdu& pdu) noexcept {
    if (pdu.opcode != ControlOpcode::kEncRsp || pdu.ctr_data.size() != 12) return std::nullopt;
    ByteReader r(pdu.ctr_data);
    EncRsp out;
    auto skd = r.read_bytes(8);
    auto iv = r.read_bytes(4);
    std::copy(skd->begin(), skd->end(), out.skd_s.begin());
    std::copy(iv->begin(), iv->end(), out.iv_s.begin());
    return out;
}

ControlPdu FeatureSet::to_control(ControlOpcode opcode) const {
    ByteWriter w(8);
    w.write_u64(bits);
    return ControlPdu{opcode, w.take()};
}

std::optional<FeatureSet> FeatureSet::parse(const ControlPdu& pdu) noexcept {
    if (pdu.ctr_data.size() != 8) return std::nullopt;
    ByteReader r(pdu.ctr_data);
    return FeatureSet{*r.read_u64()};
}

ControlPdu VersionInd::to_control() const {
    ByteWriter w(5);
    w.write_u8(version);
    w.write_u16(company_id);
    w.write_u16(subversion);
    return ControlPdu{ControlOpcode::kVersionInd, w.take()};
}

std::optional<VersionInd> VersionInd::parse(const ControlPdu& pdu) noexcept {
    if (pdu.opcode != ControlOpcode::kVersionInd || pdu.ctr_data.size() != 5) {
        return std::nullopt;
    }
    ByteReader r(pdu.ctr_data);
    VersionInd out;
    out.version = *r.read_u8();
    out.company_id = *r.read_u16();
    out.subversion = *r.read_u16();
    return out;
}

ControlPdu ClockAccuracy::to_control(ControlOpcode opcode) const {
    return ControlPdu{opcode, Bytes{sca}};
}

std::optional<ClockAccuracy> ClockAccuracy::parse(const ControlPdu& pdu) noexcept {
    if (pdu.ctr_data.size() != 1) return std::nullopt;
    return ClockAccuracy{pdu.ctr_data[0]};
}

ControlPdu UnknownRsp::to_control() const {
    return ControlPdu{ControlOpcode::kUnknownRsp, Bytes{unknown_type}};
}

std::optional<UnknownRsp> UnknownRsp::parse(const ControlPdu& pdu) noexcept {
    if (pdu.opcode != ControlOpcode::kUnknownRsp || pdu.ctr_data.size() != 1) {
        return std::nullopt;
    }
    return UnknownRsp{pdu.ctr_data[0]};
}

}  // namespace ble::link
