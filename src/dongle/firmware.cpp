#include "dongle/firmware.hpp"

#include "common/log.hpp"

namespace injectable::dongle {

using ble::ByteReader;
using ble::Bytes;
using ble::BytesView;
using ble::ByteWriter;

// --- firmware ---

void Firmware::notify(NotificationType type, BytesView payload) {
    if (!notify_) return;
    Notification notification;
    notification.type = type;
    notification.payload.assign(payload.begin(), payload.end());
    notify_(notification.serialize());
}

void Firmware::notify_error(const std::string& message) {
    notify(NotificationType::kError,
           Bytes(message.begin(), message.end()));
}

void Firmware::handle_command(BytesView wire) {
    const auto command = Command::parse(wire);
    if (!command) {
        notify_error("malformed command frame");
        return;
    }
    switch (command->type) {
        case CommandType::kVersion: {
            static constexpr char kVersion[] = "injectable-sim-fw 1.0";
            notify(NotificationType::kVersion,
                   Bytes(kVersion, kVersion + sizeof(kVersion) - 1));
            break;
        }
        case CommandType::kStartAdvSniffer:
            start_adv_sniffer();
            break;
        case CommandType::kStartRecovery:
            start_recovery();
            break;
        case CommandType::kFollow:
            follow();
            break;
        case CommandType::kInject:
            inject(command->payload);
            break;
        case CommandType::kStop:
            stop_all();
            break;
    }
}

void Firmware::start_adv_sniffer() {
    stop_all();
    sniffer_ = std::make_unique<AdvSniffer>(radio_);
    sniffer_->on_connection = [this](const SniffedConnection& conn,
                                     const ble::link::ConnectReqPdu&) {
        last_connection_ = conn;
        ByteWriter w;
        write_sniffed_connection(w, conn);
        notify(NotificationType::kConnectionDetected, w.bytes());
    };
    sniffer_->start();
}

void Firmware::start_recovery() {
    stop_all();
    recovery_ = std::make_unique<ConnectionRecovery>(radio_);
    recovery_->on_recovered = [this](const SniffedConnection& conn) {
        last_connection_ = conn;
        ByteWriter w;
        write_sniffed_connection(w, conn);
        notify(NotificationType::kConnectionDetected, w.bytes());
    };
    recovery_->start();
}

void Firmware::follow() {
    if (!last_connection_) {
        notify_error("no connection captured yet");
        return;
    }
    if (sniffer_) sniffer_->stop();
    if (recovery_) recovery_->stop();
    session_ = std::make_unique<AttackSession>(radio_, *last_connection_);
    session_->on_packet = [this](const SniffedPacket& packet) {
        ByteWriter w;
        write_sniffed_packet(w, packet);
        notify(NotificationType::kPacket, w.bytes());
    };
    session_->on_attempt = [this](const AttemptReport& report) {
        ByteWriter w(5);
        w.write_u16(static_cast<std::uint16_t>(report.attempt));
        w.write_u8(report.verdict.success() ? 1 : 0);
        w.write_u8(report.verdict.timing_ok ? 1 : 0);
        w.write_u8(report.verdict.flow_ok ? 1 : 0);
        notify(NotificationType::kInjectionReport, w.bytes());
    };
    session_->on_connection_lost = [this] {
        notify(NotificationType::kConnectionLost, {});
    };
    session_->start();
}

void Firmware::inject(BytesView payload) {
    if (!session_ || session_->lost()) {
        notify_error("not following a connection");
        return;
    }
    ByteReader r(payload);
    const auto llid = r.read_u8();
    const auto max_attempts = r.read_u16();
    if (!llid || !max_attempts) {
        notify_error("malformed inject command");
        return;
    }
    AttackSession::InjectionRequest request;
    request.llid = static_cast<ble::link::Llid>(*llid & 0b11);
    const BytesView payload_rest = r.read_rest();
    request.payload.assign(payload_rest.begin(), payload_rest.end());
    request.max_attempts = *max_attempts;
    request.done = [this](bool success, int attempts) {
        ByteWriter w(3);
        w.write_u8(success ? 1 : 0);
        w.write_u16(static_cast<std::uint16_t>(attempts));
        notify(NotificationType::kInjectionDone, w.bytes());
    };
    session_->inject(std::move(request));
}

void Firmware::stop_all() {
    if (sniffer_) sniffer_->stop();
    if (recovery_) recovery_->stop();
    if (session_) session_->stop();
    sniffer_.reset();
    recovery_.reset();
    session_.reset();
}

// --- host driver ---

void HostDriver::send(CommandType type, BytesView payload) {
    Command command;
    command.type = type;
    command.payload.assign(payload.begin(), payload.end());
    to_dongle_(command.serialize());
}

void HostDriver::start_adv_sniffer() { send(CommandType::kStartAdvSniffer); }
void HostDriver::start_recovery() { send(CommandType::kStartRecovery); }
void HostDriver::follow() { send(CommandType::kFollow); }
void HostDriver::stop() { send(CommandType::kStop); }

void HostDriver::inject(ble::link::Llid llid, BytesView payload,
                        std::uint16_t max_attempts) {
    ByteWriter w(3 + payload.size());
    w.write_u8(static_cast<std::uint8_t>(llid));
    w.write_u16(max_attempts);
    w.write_bytes(payload);
    send(CommandType::kInject, w.bytes());
}

void HostDriver::handle_notification(BytesView wire) {
    const auto notification = Notification::parse(wire);
    if (!notification) return;
    ByteReader r(notification->payload);
    switch (notification->type) {
        case NotificationType::kConnectionDetected:
            if (const auto conn = read_sniffed_connection(r); conn && on_connection) {
                on_connection(*conn);
            }
            break;
        case NotificationType::kPacket:
            if (const auto packet = read_sniffed_packet(r); packet && on_packet) {
                on_packet(*packet);
            }
            break;
        case NotificationType::kInjectionReport: {
            const auto attempt = r.read_u16();
            const auto success = r.read_u8();
            if (attempt && success && on_attempt) on_attempt(*attempt, *success != 0);
            break;
        }
        case NotificationType::kInjectionDone: {
            const auto success = r.read_u8();
            const auto attempts = r.read_u16();
            if (success && attempts && on_done) on_done(*success != 0, *attempts);
            break;
        }
        case NotificationType::kConnectionLost:
            if (on_connection_lost) on_connection_lost();
            break;
        case NotificationType::kError:
            if (on_error) {
                on_error(std::string(notification->payload.begin(),
                                     notification->payload.end()));
            }
            break;
        case NotificationType::kVersion:
            break;
    }
}

}  // namespace injectable::dongle
