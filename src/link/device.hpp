// LinkLayerDevice: a radio with the GAP-visible Link-Layer roles
// (paper §III-A) — Peripheral (advertise, accept CONNECT_REQ), Observer
// (scan), Central (initiate) — and host of the Connection state machine once
// a connection is established.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "link/adv_pdu.hpp"
#include "link/connection.hpp"
#include "sim/radio_device.hpp"

namespace ble::link {

/// Default advertising interval (host policy, not a spec mandate; the spec
/// range is 20 ms - 10.24 s, Vol 6 Part B 4.4.2.2).
constexpr Duration kDefaultAdvInterval = 100_ms;

struct LinkLayerDeviceConfig {
    sim::RadioDeviceConfig radio{};
    DeviceAddress address{};
    /// Advertising interval (plus a 0-10 ms pseudo-random advDelay per event).
    Duration adv_interval = kDefaultAdvInterval;
    /// Resume advertising automatically when a connection closes.
    bool auto_readvertise = true;
    /// Passed to Connection (counter-measure evaluation; see ConnectionConfig).
    double widening_scale = 1.0;
    /// SCA advertised in CONNECT_REQ when initiating. 0 = derive from the
    /// actual sleep clock. Real devices declare a conservative (worse) bound
    /// than their typical drift; the window-widening attack surface scales
    /// with the *declared* value.
    double declared_sca_ppm = 0.0;
    /// Advertise / negotiate Channel Selection Algorithm #2 (BLE 5). The
    /// connection uses CSA#2 only when both ends set their ChSel bit.
    bool support_csa2 = false;
};

class LinkLayerDevice : public sim::RadioDevice {
public:
    LinkLayerDevice(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
                    LinkLayerDeviceConfig config);
    ~LinkLayerDevice() override;

    // --- Peripheral role ---
    void start_advertising(Bytes adv_data);
    void set_scan_response(Bytes scan_rsp_data) { scan_rsp_data_ = std::move(scan_rsp_data); }
    void stop_advertising();
    [[nodiscard]] bool advertising() const noexcept { return mode_ == Mode::kAdvertising; }

    // --- Observer role ---
    /// Sees every advertising PDU heard; the payload views the received
    /// frame, valid only during the call.
    using AdvObserver = std::function<void(const AdvPduView&, TimePoint rx_end,
                                           double rssi_dbm, sim::Channel channel)>;
    void start_scanning(AdvObserver observer);
    void stop_scanning();

    // --- Central role ---
    /// Scans for `peer` and sends CONNECT_REQ on its next advertisement.
    /// Missing access address / CRCInit in `params` are generated; the SCA
    /// field is filled from this device's own sleep clock.
    void connect_to(const DeviceAddress& peer, ConnectionParams params);

    // --- Connection plumbing ---
    /// Hooks installed on the next Connection this device creates.
    void set_connection_hooks(ConnectionHooks hooks) { user_hooks_ = std::move(hooks); }
    /// Fired when a connection reaches the Link Layer (either role).
    std::function<void(Connection&)> on_connection_established;

    [[nodiscard]] Connection* connection() noexcept { return connection_.get(); }
    [[nodiscard]] const DeviceAddress& address() const noexcept { return config_.address; }

    void on_rx(const sim::RxFrame& frame) override;
    void on_tx_complete() override;

private:
    enum class Mode : std::uint8_t {
        kIdle,
        kAdvertising,
        kScanning,
        kInitiating,
        kConnected,
    };

    void advertising_event();
    void advertise_on_next_channel();
    void scan_rotate();
    void handle_adv_channel_rx(const sim::RxFrame& frame);
    void become_slave(const ConnectReqPdu& req, TimePoint connect_req_end);
    void become_master(TimePoint connect_req_end);
    ConnectionHooks make_effective_hooks();
    void cleanup_connection();

    LinkLayerDeviceConfig config_;
    Mode mode_ = Mode::kIdle;

    // Advertising state.
    Bytes adv_data_;
    AdvPdu adv_ind_;  // the ADV_IND built from adv_data_, resent every event
    Bytes scan_rsp_data_;
    int adv_channel_index_ = 0;  // 0..2 -> channels 37..39
    sim::EventId adv_timer_ = sim::kInvalidEvent;
    bool sending_scan_rsp_ = false;

    // Scanning state.
    AdvObserver adv_observer_;
    sim::EventId scan_timer_ = sim::kInvalidEvent;
    int scan_channel_index_ = 0;

    // Initiating state.
    std::optional<DeviceAddress> connect_target_;
    ConnectionParams initiate_params_{};
    bool connect_req_in_flight_ = false;

    // Connection state.
    ConnectionHooks user_hooks_;
    std::unique_ptr<Connection> connection_;
};

}  // namespace ble::link
