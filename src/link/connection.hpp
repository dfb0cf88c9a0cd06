// The Link-Layer connection state machine (paper §III-B.5-8) for both roles.
//
// One Connection instance drives one end of a BLE connection on top of a
// sim::RadioDevice:
//  * Master: transmits the anchor frame of every connection event on its own
//    sleep clock, then listens for the slave's response.
//  * Slave: predicts each anchor from the last observed one, opens its
//    receive window early by the Eq. 4/5 *window widening* — the exact
//    mechanism InjectaBLE races against — and re-anchors on whatever frame
//    arrives first with a matching access address, CRC-valid or not (a
//    CRC-failed frame still sets the anchor and triggers a response with an
//    unchanged NESN, which is what makes the paper's Eq. 7 success heuristic
//    observable).
//
// The class is deliberately constructible from raw state (parameters, event
// counter, SN/NESN, channel-selector state) rather than only via a
// CONNECT_REQ exchange: the attack scenarios B/C/D *become* a master or
// slave mid-connection, so they resume a Connection from sniffed state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "common/bytes.hpp"
#include "common/liveness.hpp"
#include "common/time.hpp"
#include "link/adv_pdu.hpp"
#include "obs/event.hpp"
#include "link/channel_selection.hpp"
#include "link/control_pdu.hpp"
#include "link/pdu.hpp"
#include "sim/radio_device.hpp"

namespace ble::link {

enum class Role : std::uint8_t { kMaster, kSlave };

enum class DisconnectReason : std::uint8_t {
    kLocalTerminate,
    kRemoteTerminate,
    kSupervisionTimeout,
    kMicFailure,
    kFailedToEstablish,
};

[[nodiscard]] const char* disconnect_reason_name(DisconnectReason reason) noexcept;

/// Window widening, Eq. 4 of the paper: the extra time a receiver listens on
/// each side of the predicted anchor to absorb both clocks' drift over `span`
/// (the time since the last observed anchor).
[[nodiscard]] Duration window_widening(double master_sca_ppm, double slave_sca_ppm,
                                       Duration span) noexcept;

/// Diagnostics emitted at the close of every connection event.
struct ConnectionEventReport {
    std::uint16_t event_counter = 0;
    std::uint8_t channel = 0;
    TimePoint anchor = 0;       ///< global time of the event's anchor
    bool anchor_observed = false;  ///< slave: heard a master frame this event
    int pdus_rx = 0;
    int pdus_tx = 0;
    int crc_errors = 0;
};

struct ConnectionHooks {
    /// New (non-duplicate) data PDU accepted by flow control. Control PDUs are
    /// handled internally first; they are reported through on_control.  The
    /// payload views the received frame (or the decrypted plaintext): it is
    /// valid only during the call, so copy what must outlive it.
    std::function<void(const DataPduView&)> on_data;
    /// Every control PDU accepted by flow control (after built-in handling).
    std::function<void(const ControlPdu&)> on_control;
    std::function<void(DisconnectReason)> on_disconnected;
    std::function<void(const ConnectionEventReport&)> on_event_closed;
    /// A connection-update procedure just took effect (at its instant).
    std::function<void(const ConnectionUpdateInd&)> on_connection_updated;
};

/// Link-layer encryption hook (implemented by ble_crypto::LinkEncryption).
/// When attached and enabled, every non-empty PDU payload is sealed/opened;
/// a MIC failure on receive terminates the connection (Vol 6, Part B §5.1.3.1
/// — the DoS outcome the paper predicts for injection into encrypted links).
class LinkCrypto {
public:
    virtual ~LinkCrypto() = default;
    /// Seals `payload`; returns ciphertext || MIC. `first_header_byte` is the
    /// PDU header byte with SN/NESN/MD masked out, as the spec's AAD.
    virtual Bytes encrypt(std::uint8_t first_header_byte, BytesView payload,
                          bool sender_is_master) = 0;
    /// Opens ciphertext || MIC; nullopt on MIC mismatch.
    virtual std::optional<Bytes> decrypt(std::uint8_t first_header_byte, BytesView payload,
                                         bool sender_is_master) = 0;
    [[nodiscard]] virtual std::size_t mic_size() const noexcept { return 4; }
};

struct ConnectionConfig {
    Role role = Role::kSlave;
    ConnectionParams params{};
    /// SCA (ppm) this end assumes for itself when computing window widening.
    /// The paper's slave uses its real worst-case; defaults to 20 ppm.
    double own_sca_ppm = 20.0;
    /// Counter-measure knob (paper §VIII, solution 1): scales the slave's
    /// window widening below the spec value. 1.0 = spec behaviour; smaller
    /// values shrink the race window at the cost of link robustness.
    double widening_scale = 1.0;
    /// Initial flow-control / hopping state; non-default when an attacker
    /// resumes a hijacked connection mid-flight.
    std::uint16_t initial_event_counter = 0;
    bool initial_sn = false;
    bool initial_nesn = false;
    /// Channel selector; defaults to CSA#1 built from params.
    std::unique_ptr<ChannelSelector> selector;
    /// Maximum data-channel payload this end accepts/transmits (27 default).
    std::size_t max_payload = 27;
};

class Connection {
public:
    Connection(sim::RadioDevice& radio, ConnectionConfig config, ConnectionHooks hooks);
    ~Connection();

    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    /// Arms the first connection event. `t_ref` is the end of the CONNECT_REQ
    /// (paper Eq. 1): the transmit window opens at
    /// t_ref + 1.25 ms + WinOffset*1.25 ms.
    void start(TimePoint t_ref);

    /// Resumes mid-connection at a known anchor: the next event (at
    /// `config.initial_event_counter`) is predicted at `next_anchor`.
    /// Used by hijacking attackers that join at a connection-update instant.
    void resume(TimePoint next_anchor);

    /// Radio plumbing — the owning device forwards these.
    void handle_rx(const sim::RxFrame& frame);
    void handle_tx_complete();

    /// Enqueues an upper-layer payload (L2CAP fragment).
    void send_data(Llid llid, Bytes payload);
    /// Enqueues an LL control PDU.
    void send_control(const ControlPdu& pdu);
    /// Graceful termination: sends LL_TERMINATE_IND, disconnects once acked.
    void terminate(std::uint8_t error_code = 0x13);

    /// Master only: starts a connection-update procedure. If `update.instant`
    /// is 0 it is set to current event counter + `instant_delta`.
    bool start_connection_update(ConnectionUpdateInd update, std::uint16_t instant_delta = 6);
    /// Master only: starts a channel-map-update procedure.
    bool start_channel_map_update(ChannelMap map, std::uint16_t instant_delta = 6);

    void set_crypto(std::shared_ptr<LinkCrypto> crypto) { crypto_ = std::move(crypto); }
    /// Turns encryption on/off for subsequent PDUs (after LL_START_ENC).
    void set_encryption_enabled(bool enabled) noexcept { encrypted_ = enabled; }
    [[nodiscard]] bool encryption_enabled() const noexcept { return encrypted_; }

    // --- observers ---
    [[nodiscard]] Role role() const noexcept { return config_.role; }
    [[nodiscard]] const ConnectionParams& params() const noexcept { return config_.params; }
    [[nodiscard]] std::uint16_t event_counter() const noexcept { return event_counter_; }
    [[nodiscard]] bool sn() const noexcept { return sn_; }
    [[nodiscard]] bool nesn() const noexcept { return nesn_; }
    [[nodiscard]] bool closed() const noexcept { return closed_; }
    [[nodiscard]] TimePoint last_anchor() const noexcept { return anchor_; }
    [[nodiscard]] bool anchor_ever_observed() const noexcept { return anchor_valid_; }
    [[nodiscard]] std::size_t tx_queue_depth() const noexcept { return tx_queue_.size(); }

private:
    enum class State : std::uint8_t {
        kIdle,               // between events
        kMasterTxAnchor,     // master: anchor frame in flight
        kMasterWaitRsp,      // master: listening for the slave
        kSlaveWaitAnchor,    // slave: receive window open
        kSlaveTxRsp,         // slave: response in flight
        kClosed,
    };

    // Event lifecycle.
    void master_event_begin();
    void master_continue_exchange();
    void slave_open_window(TimePoint window_start, Duration window_len, Duration widening);
    void slave_window_timeout();
    void close_event();
    void schedule_next_event();
    void apply_instant_procedures();  // connection update / channel map at instant
    void disconnect(DisconnectReason reason);

    // PDU plumbing.
    static bool is_start_enc_req(const DataPduView& pdu) noexcept;
    /// The next PDU to send; its payload views in_flight_ (no copy).
    DataPduView build_next_pdu();
    void transmit_pdu(const DataPduView& pdu);
    void process_frame(const DataPduView& pdu, bool crc_ok, TimePoint rx_start,
                       TimePoint rx_end);
    void handle_control(const ControlPdu& pdu);
    void check_supervision(TimePoint now);

    [[nodiscard]] Duration max_frame_air_time() const noexcept;
    [[nodiscard]] Duration base_widening(int events_elapsed) const noexcept;
    [[nodiscard]] bool instant_reached(std::uint16_t instant) const noexcept;

    /// Publishes a lifecycle event on the world's obs::EventBus (reachable via
    /// the radio's medium); `reason` is only used for Kind::kClosed.
    void emit_conn_event(obs::ConnEvent::Kind kind, std::string_view reason = {});

    /// Schedules `fn` but silently drops it if this Connection has been
    /// destroyed or closed by then — every internal timer goes through these,
    /// so tearing down a device mid-event can never fire a dangling callback.
    /// Templates, so the guard wraps the caller's lambda directly and the
    /// whole capture fits the scheduler's inline callback storage.
    template <typename F>
    sim::EventId guarded_at(TimePoint t, F&& fn) {
        return radio_.scheduler().schedule_at(
            t, [alive = alive_.watch(), fn = std::forward<F>(fn)] {
                if (alive.alive()) fn();
            });
    }
    template <typename F>
    sim::EventId guarded_after(Duration d, F&& fn) {
        return guarded_at(radio_.scheduler().now() + d, std::forward<F>(fn));
    }

    sim::RadioDevice& radio_;
    ConnectionConfig config_;
    ConnectionHooks hooks_;
    std::shared_ptr<LinkCrypto> crypto_;
    LivenessToken alive_;

    State state_ = State::kIdle;
    bool closed_ = false;
    bool encrypted_ = false;

    // Flow control (paper §III-B.6).
    bool sn_ = false;    // transmitSeqNum
    bool nesn_ = false;  // nextExpectedSeqNum
    struct PendingTx {
        Llid llid{};
        Bytes payload;
    };
    std::deque<PendingTx> tx_queue_;
    std::optional<PendingTx> in_flight_;  // transmitted, not yet acked
    bool terminate_sent_ = false;
    bool terminate_after_tx_ = false;
    bool start_enc_rsp_sent_ = false;
    std::uint8_t pending_terminate_code_ = 0x13;
    bool version_sent_ = false;

    // Event timing.
    Duration last_widening_ = 0;  // widening of the current/most recent window
    std::uint16_t event_counter_ = 0;
    std::uint8_t channel_ = 0;
    TimePoint anchor_ = 0;            // global time of last *observed* anchor
    bool anchor_valid_ = false;
    TimePoint predicted_anchor_ = 0;  // slave: next anchor prediction
    int events_since_anchor_ = 0;     // slave: missed-event multiplier for Eq. 4
    TimePoint last_valid_rx_ = 0;     // supervision timer base
    sim::EventId timer_ = sim::kInvalidEvent;

    // In-event bookkeeping.
    ConnectionEventReport report_{};
    bool peer_md_ = false;
    TimePoint last_rx_end_ = 0;
    bool last_tx_md_ = false;  // MD bit of the frame we sent last

    // Pending procedures (applied at their instant).
    std::optional<ConnectionUpdateInd> pending_update_;
    std::optional<ChannelMapInd> pending_map_;
};

}  // namespace ble::link
