#include "link/device.hpp"

#include "common/log.hpp"
#include "phy/access_address.hpp"
#include "phy/crc.hpp"
#include "phy/frame.hpp"
#include "phy/spec.hpp"

namespace ble::link {

namespace {
constexpr sim::Channel kAdvChannels[3] = {37, 38, 39};
/// Longest advertising-channel frame: CONNECT_REQ (2 + 34 byte PDU).
constexpr Duration kMaxAdvFrameAir =
    static_cast<Duration>(phy::kPreambleBytesLe1M + phy::kAccessAddressBytes +
                          phy::kPduHeaderBytes + 34 + phy::kCrcBytes) *
    phy::kByteAirtimeLe1M;
constexpr Duration kAdvRxGuard = 30_us;
/// Scanner dwell per advertising channel (host policy, like scanInterval).
constexpr Duration kScanRotateInterval = 30_ms;

/// `pdu` framed for the advertising channels in a pooled buffer of `radio`.
sim::AirFrame adv_air_frame(sim::RadioDevice& radio, const AdvPduView& pdu) {
    return phy::make_air_frame(radio.frame_buffer(), phy::kAdvertisingAccessAddress,
                               pdu.header(), pdu.payload, phy::kAdvertisingCrcInit);
}
}  // namespace

LinkLayerDevice::LinkLayerDevice(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
                                 LinkLayerDeviceConfig config)
    : sim::RadioDevice(scheduler, medium, rng, config.radio), config_(std::move(config)) {}

LinkLayerDevice::~LinkLayerDevice() = default;

// --- Peripheral ---

void LinkLayerDevice::start_advertising(Bytes adv_data) {
    adv_data_ = std::move(adv_data);
    AdvDataPdu adv;
    adv.type = AdvPduType::kAdvInd;
    adv.advertiser = config_.address;
    adv.data = adv_data_;
    adv_ind_ = adv.to_adv_pdu();
    adv_ind_.ch_sel = config_.support_csa2;
    if (mode_ == Mode::kConnected) return;  // resumes on disconnect
    mode_ = Mode::kAdvertising;
    advertising_event();
}

void LinkLayerDevice::stop_advertising() {
    if (mode_ != Mode::kAdvertising) return;
    mode_ = Mode::kIdle;
    scheduler().cancel(adv_timer_);
    adv_timer_ = sim::kInvalidEvent;
    stop_listening();
}

void LinkLayerDevice::advertising_event() {
    if (mode_ != Mode::kAdvertising) return;
    adv_channel_index_ = 0;
    advertise_on_next_channel();
}

void LinkLayerDevice::advertise_on_next_channel() {
    if (mode_ != Mode::kAdvertising) return;
    if (adv_channel_index_ >= 3) {
        // End of the advertising event; schedule the next one with the
        // spec's 0-10 ms pseudo-random advDelay.
        const Duration delay =
            config_.adv_interval + static_cast<Duration>(rng().uniform(0.0, 10e6));
        adv_timer_ = schedule_local(delay, [this] { advertising_event(); });
        return;
    }
    transmit(kAdvChannels[adv_channel_index_], adv_air_frame(*this, adv_ind_));
}

void LinkLayerDevice::handle_adv_channel_rx(const sim::RxFrame& frame) {
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw || raw->access_address != phy::kAdvertisingAccessAddress) return;
    if (!raw->crc_ok(phy::kAdvertisingCrcInit)) return;
    const auto pdu = AdvPduView::parse(raw->pdu);
    if (!pdu) return;

    if (mode_ == Mode::kScanning) {
        if (adv_observer_) adv_observer_(*pdu, frame.end, frame.rssi_dbm, frame.channel);
        return;
    }

    if (mode_ == Mode::kAdvertising) {
        if (pdu->type == AdvPduType::kConnectReq) {
            if (auto req = ConnectReqPdu::parse(*pdu);
                req && req->advertiser == config_.address) {
                become_slave(*req, frame.end);
            }
            return;
        }
        if (pdu->type == AdvPduType::kScanReq && !scan_rsp_data_.empty()) {
            // SCAN_REQ payload: scanner address (6) + advertiser address (6).
            if (raw->pdu.size() == 2 + 12) {
                ByteReader r(raw->pdu.subspan(8));
                if (auto target = DeviceAddress::read_from(
                        r, pdu->rx_add ? AddressType::kRandom : AddressType::kPublic);
                    target && *target == config_.address) {
                    sending_scan_rsp_ = true;
                    scheduler().cancel(adv_timer_);
                    const sim::Channel channel = kAdvChannels[adv_channel_index_];
                    // Fire-and-forget: the lambda re-checks mode_, so a stale
                    // response is a no-op and cancellation is never needed.
                    // injectable-lint: allow(D4) -- guarded by the mode_ check
                    (void)scheduler().schedule_at(frame.end + kTifs, [this, channel] {
                        if (mode_ != Mode::kAdvertising) return;
                        AdvDataPdu rsp;
                        rsp.type = AdvPduType::kScanRsp;
                        rsp.advertiser = config_.address;
                        rsp.data = scan_rsp_data_;
                        transmit(channel, adv_air_frame(*this, rsp.to_adv_pdu()));
                    });
                }
            }
        }
        return;
    }

    if (mode_ == Mode::kInitiating && connect_target_ && !connect_req_in_flight_) {
        if (pdu->type == AdvPduType::kAdvInd) {
            if (auto adv = AdvDataPdu::parse(*pdu); adv && adv->advertiser == *connect_target_) {
                connect_req_in_flight_ = true;
                stop_listening();
                // CSA#2 when both ends advertise support (ChSel bits).
                initiate_params_.use_csa2 = config_.support_csa2 && pdu->ch_sel;
                const sim::Channel channel = frame.channel;
                // injectable-lint: allow(D4) -- guarded by the mode_ check
                (void)scheduler().schedule_at(frame.end + kTifs, [this, channel] {
                    if (mode_ != Mode::kInitiating) return;
                    ConnectReqPdu req;
                    req.initiator = config_.address;
                    req.advertiser = *connect_target_;
                    req.params = initiate_params_;
                    transmit(channel, adv_air_frame(*this, req.to_adv_pdu()));
                });
            }
        }
    }
}

// --- Observer ---

void LinkLayerDevice::start_scanning(AdvObserver observer) {
    adv_observer_ = std::move(observer);
    mode_ = Mode::kScanning;
    scan_channel_index_ = 0;
    listen(kAdvChannels[0]);
    scan_timer_ = scheduler().schedule_after(kScanRotateInterval, [this] { scan_rotate(); });
}

void LinkLayerDevice::scan_rotate() {
    if (mode_ != Mode::kScanning && mode_ != Mode::kInitiating) return;
    scan_channel_index_ = (scan_channel_index_ + 1) % 3;
    if (!transmitting() && !connect_req_in_flight_) {
        listen(kAdvChannels[scan_channel_index_]);
    }
    scan_timer_ = scheduler().schedule_after(kScanRotateInterval, [this] { scan_rotate(); });
}

void LinkLayerDevice::stop_scanning() {
    if (mode_ == Mode::kScanning) mode_ = Mode::kIdle;
    scheduler().cancel(scan_timer_);
    scan_timer_ = sim::kInvalidEvent;
    stop_listening();
}

// --- Central ---

void LinkLayerDevice::connect_to(const DeviceAddress& peer, ConnectionParams params) {
    connect_target_ = peer;
    if (params.access_address == 0) params.access_address = phy::random_access_address(rng());
    if (params.crc_init == 0) params.crc_init = static_cast<std::uint32_t>(rng().next_below(1u << 24));
    params.master_sca = ppm_to_sca_field(
        config_.declared_sca_ppm > 0 ? config_.declared_sca_ppm : sleep_clock().sca_ppm());
    initiate_params_ = params;
    connect_req_in_flight_ = false;
    mode_ = Mode::kInitiating;
    scan_channel_index_ = 0;
    listen(kAdvChannels[0]);
    scan_timer_ = scheduler().schedule_after(kScanRotateInterval, [this] { scan_rotate(); });
}

// --- Connection plumbing ---

ConnectionHooks LinkLayerDevice::make_effective_hooks() {
    ConnectionHooks hooks = user_hooks_;
    auto user_disconnect = hooks.on_disconnected;
    hooks.on_disconnected = [this, user_disconnect](DisconnectReason reason) {
        if (user_disconnect) user_disconnect(reason);
        // Defer destruction: we are inside a Connection member function.
        // injectable-lint: allow(D4) -- immediate one-shot; nothing to cancel
        (void)scheduler().schedule_after(0, [this] { cleanup_connection(); });
    };
    return hooks;
}

void LinkLayerDevice::cleanup_connection() {
    connection_.reset();
    mode_ = Mode::kIdle;
    if (config_.auto_readvertise && !adv_data_.empty()) {
        start_advertising(std::move(adv_data_));
    }
}

void LinkLayerDevice::become_slave(const ConnectReqPdu& req, TimePoint connect_req_end) {
    scheduler().cancel(adv_timer_);
    adv_timer_ = sim::kInvalidEvent;
    stop_listening();
    mode_ = Mode::kConnected;

    ConnectionConfig cfg;
    cfg.role = Role::kSlave;
    cfg.params = req.params;
    cfg.own_sca_ppm = sleep_clock().sca_ppm();
    cfg.widening_scale = config_.widening_scale;
    connection_ = std::make_unique<Connection>(*this, std::move(cfg), make_effective_hooks());
    connection_->start(connect_req_end);
    BLE_LOG_INFO(name(), ": connection established as slave (AA=0x", std::hex,
                 req.params.access_address, std::dec, ")");
    if (on_connection_established) on_connection_established(*connection_);
}

void LinkLayerDevice::become_master(TimePoint connect_req_end) {
    scheduler().cancel(scan_timer_);
    scan_timer_ = sim::kInvalidEvent;
    stop_listening();
    mode_ = Mode::kConnected;

    ConnectionConfig cfg;
    cfg.role = Role::kMaster;
    cfg.params = initiate_params_;
    cfg.own_sca_ppm = sleep_clock().sca_ppm();
    cfg.widening_scale = config_.widening_scale;
    connection_ = std::make_unique<Connection>(*this, std::move(cfg), make_effective_hooks());
    connection_->start(connect_req_end);
    BLE_LOG_INFO(name(), ": connection established as master (AA=0x", std::hex,
                 initiate_params_.access_address, std::dec, ")");
    if (on_connection_established) on_connection_established(*connection_);
}

// --- radio callbacks ---

void LinkLayerDevice::on_rx(const sim::RxFrame& frame) {
    if (mode_ == Mode::kConnected && connection_) {
        connection_->handle_rx(frame);
        return;
    }
    handle_adv_channel_rx(frame);
}

void LinkLayerDevice::on_tx_complete() {
    if (mode_ == Mode::kConnected && connection_) {
        connection_->handle_tx_complete();
        return;
    }
    if (mode_ == Mode::kAdvertising) {
        if (sending_scan_rsp_) {
            sending_scan_rsp_ = false;
            ++adv_channel_index_;
            advertise_on_next_channel();
            return;
        }
        // ADV_IND sent: listen for CONNECT_REQ / SCAN_REQ for T_IFS + frame.
        listen(kAdvChannels[adv_channel_index_]);
        adv_timer_ = scheduler().schedule_after(
            kTifs + kMaxAdvFrameAir + kAdvRxGuard, [this] {
                if (mode_ != Mode::kAdvertising) return;
                if (receiving()) {
                    adv_timer_ = scheduler().schedule_after(kMaxAdvFrameAir, [this] {
                        if (mode_ != Mode::kAdvertising) return;
                        stop_listening();
                        ++adv_channel_index_;
                        advertise_on_next_channel();
                    });
                    return;
                }
                stop_listening();
                ++adv_channel_index_;
                advertise_on_next_channel();
            });
        return;
    }
    if (mode_ == Mode::kInitiating && connect_req_in_flight_) {
        become_master(now());
        return;
    }
    if (mode_ == Mode::kScanning) {
        // e.g. after an active-scan SCAN_REQ: resume listening for the
        // SCAN_RSP on the same channel.
        listen(kAdvChannels[scan_channel_index_]);
    }
}

}  // namespace ble::link
