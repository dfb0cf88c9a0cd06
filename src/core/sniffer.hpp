// Connection acquisition (paper §V-E: "a lightweight BLE sniffer has been
// implemented, based on previous works [8], [19] and [17]").
//
// Two entry points, matching the two situations an attacker faces:
//  * AdvSniffer — the connection has not started yet: camp on the advertising
//    channels, follow the target's ADV hops (Sniffle-style) and capture the
//    CONNECT_REQ, which hands over every Table-II parameter in one packet.
//  * ConnectionRecovery — the connection already exists: recover the
//    parameters from data-channel traffic alone (Mike Ryan's technique,
//    refined by Cauquil): the access address leaks in every frame, CRCInit
//    falls out of running the CRC LFSR backwards, the hop interval from the
//    37-event channel revisit period, and the hop increment from the spacing
//    between two adjacent channels (a modular inverse).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/liveness.hpp"
#include "core/attacker_radio.hpp"
#include "core/session.hpp"
#include "link/adv_pdu.hpp"

namespace injectable {

class AdvSniffer {
public:
    explicit AdvSniffer(AttackerRadio& radio);
    ~AdvSniffer();

    /// Camps on 37 and follows advertisers across 37->38->39.
    void start();
    void stop();

    /// CONNECT_REQ captured: the full parameter set + time reference.
    std::function<void(const SniffedConnection&, const ble::link::ConnectReqPdu&)>
        on_connection;
    /// Every advertising PDU heard (diagnostics); the payload views the
    /// received frame, valid only during the call.
    std::function<void(const ble::link::AdvPduView&, ble::TimePoint end, std::uint8_t channel)>
        on_advertisement;

private:
    void handle_rx(const ble::sim::RxFrame& frame);
    void rearm_home_channel();

    AttackerRadio& radio_;
    bool running_ = false;
    std::uint8_t channel_index_ = 0;  // 0..2 -> 37..39
    ble::sim::EventId timer_ = ble::sim::kInvalidEvent;
    ble::LivenessToken alive_;
};

/// Parameter recovery for an already-established connection. Limitations
/// (documented, inherent to the technique): assumes CSA#1 with all 37 data
/// channels in use, and cannot learn the absolute connection-event counter
/// (so scenarios needing a valid `instant` require CONNECT_REQ capture).
struct RecoveryParams {
    std::uint8_t first_channel = 4;
    std::uint8_t second_channel = 5;
    /// Sightings of the same AA before it is considered confirmed.
    int aa_confirmations = 3;
    /// Assumed master SCA when it cannot be observed (worst-ish case).
    std::uint8_t assumed_master_sca_field = 4;  // 51-75 ppm
};

class ConnectionRecovery {
public:
    using Params = RecoveryParams;

    explicit ConnectionRecovery(AttackerRadio& radio, Params params = {});
    ~ConnectionRecovery();

    void start();
    void stop();

    std::function<void(const SniffedConnection&)> on_recovered;
    /// Phase transitions, for logging/tests: "aa", "crc", "interval", "hop".
    std::function<void(const std::string&)> on_progress;

    [[nodiscard]] std::optional<std::uint32_t> access_address() const noexcept { return aa_; }
    [[nodiscard]] std::optional<std::uint32_t> crc_init() const noexcept { return crc_init_; }
    [[nodiscard]] std::optional<std::uint16_t> hop_interval() const noexcept {
        return hop_interval_;
    }

private:
    void handle_rx(const ble::sim::RxFrame& frame);
    void finish(ble::TimePoint anchor);

    AttackerRadio& radio_;
    Params params_;
    bool running_ = false;

    // Phase state.
    std::map<std::uint32_t, int> aa_sightings_;
    std::optional<std::uint32_t> aa_;
    std::map<std::uint32_t, int> crc_candidates_;
    std::optional<std::uint32_t> crc_init_;
    std::vector<ble::TimePoint> anchors_first_channel_;
    std::optional<std::uint16_t> hop_interval_;
    bool on_second_channel_ = false;
    std::optional<std::uint8_t> hop_increment_;
    ble::TimePoint last_frame_end_ = -1'000'000'000;
};

/// Modular inverse mod 37 (37 is prime) — the hop-increment recovery step.
[[nodiscard]] std::uint8_t mod37_inverse(std::uint8_t value) noexcept;

}  // namespace injectable
