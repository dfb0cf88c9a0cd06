#include "host/peripheral.hpp"

#include "common/log.hpp"

namespace ble::host {

Peripheral::Peripheral(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
                       PeripheralConfig config)
    : config_(std::move(config)), rng_(rng) {
    link::LinkLayerDeviceConfig dev_cfg;
    dev_cfg.radio = config_.radio;
    dev_cfg.radio.name = config_.name;
    dev_cfg.adv_interval = config_.adv_interval;
    dev_cfg.widening_scale = config_.widening_scale;
    dev_cfg.support_csa2 = config_.support_csa2;
    dev_cfg.address = link::DeviceAddress::random_static(rng_);
    device_ = std::make_unique<link::LinkLayerDevice>(scheduler, medium, rng_.fork(),
                                                      std::move(dev_cfg));
    wire_hooks();
}

void Peripheral::wire_hooks() {
    link::ConnectionHooks hooks;
    hooks.on_data = [this](const link::DataPduView& pdu) {
        if (l2cap_) l2cap_->handle_ll_pdu(pdu);
    };
    hooks.on_control = [this](const link::ControlPdu& pdu) { handle_control(pdu); };
    hooks.on_disconnected = [this](link::DisconnectReason reason) {
        connected_ = false;
        l2cap_.reset();
        if (on_disconnected) on_disconnected(reason);
    };
    hooks.on_event_closed = [this](const link::ConnectionEventReport& report) {
        if (on_event_closed) on_event_closed(report);
    };
    device_->set_connection_hooks(std::move(hooks));

    device_->on_connection_established = [this](link::Connection& conn) {
        connected_ = true;
        l2cap_ = std::make_unique<L2capChannel>(
            27,
            [&conn](link::Llid llid, Bytes fragment) {
                conn.send_data(llid, std::move(fragment));
            },
            [this](std::uint16_t cid, BytesView sdu) {
                if (cid == kAttCid) handle_att_sdu(sdu);
            });
        if (on_connected) on_connected();
    };
}

void Peripheral::start() { device_->start_advertising(link::make_adv_name(config_.name)); }

void Peripheral::handle_att_sdu(BytesView sdu) {
    const auto pdu = att::AttPdu::parse(sdu);
    if (!pdu) return;
    const auto response = att_server_.handle_pdu(*pdu);
    if (response && l2cap_) {
        l2cap_->send(kAttCid, response->serialize());
    }
}

void Peripheral::notify(std::uint16_t handle, BytesView value) {
    if (!connected_ || !l2cap_) return;
    l2cap_->send(kAttCid, att::make_notification(handle, value).serialize());
}

void Peripheral::handle_control(const link::ControlPdu& pdu) {
    if (pdu.opcode != link::ControlOpcode::kEncReq) return;
    link::Connection* conn = connection();
    if (conn == nullptr) return;
    const auto req = link::EncReq::parse(pdu);
    if (!req) return;
    if (!ltk_) {
        // No key: reject so the master does not wait forever.
        conn->send_control(
            link::ControlPdu{link::ControlOpcode::kRejectInd, Bytes{0x06}});
        return;
    }

    link::EncRsp rsp;
    for (auto& b : rsp.skd_s) b = static_cast<std::uint8_t>(rng_.next_below(256));
    for (auto& b : rsp.iv_s) b = static_cast<std::uint8_t>(rng_.next_below(256));

    crypto::SessionMaterial material;
    material.ltk = *ltk_;
    material.skd_m = req->skd_m;
    material.iv_m = req->iv_m;
    material.skd_s = rsp.skd_s;
    material.iv_s = rsp.iv_s;
    conn->set_crypto(std::make_shared<crypto::LinkEncryption>(material));
    conn->send_control(rsp.to_control());
    BLE_LOG_INFO(config_.name, ": encryption session keys derived (slave side)");
}

}  // namespace ble::host
