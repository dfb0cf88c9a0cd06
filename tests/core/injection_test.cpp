// End-to-end InjectaBLE: the attacker races the legitimate master inside the
// window-widening window and the victim slave executes the forged frame —
// validated against simulator ground truth, not just the Eq. 7 heuristic.
#include <gtest/gtest.h>

#include "attack_world.hpp"
#include "core/forge.hpp"

namespace injectable {
namespace {

using namespace ble;
using test::AttackWorld;

/// Runs the scheduler until `pred` or the deadline.
template <typename Pred>
bool run_until(AttackWorld& world, Duration budget, Pred pred) {
    const TimePoint deadline = world.scheduler.now() + budget;
    while (world.scheduler.now() < deadline && !pred()) {
        if (!world.scheduler.run_one()) break;
    }
    return pred();
}

TEST(InjectionTest, InjectsBulbOffWrite) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());

    AttackSession session(*world.attacker, *sniffed);
    session.start();
    world.run_for(300_ms);  // let the session synchronise

    ASSERT_TRUE(world.bulb.state().powered);
    std::optional<bool> outcome;
    int attempts = 0;
    AttackSession::InjectionRequest request;
    request.llid = link::Llid::kDataStart;
    request.payload = att_over_l2cap(att::make_write_req(
        world.bulb.control_handle(), gatt::LightbulbProfile::cmd_set_power(false, 12)));
    request.max_attempts = 60;
    request.done = [&](bool ok, int n) {
        outcome = ok;
        attempts = n;
    };
    session.inject(std::move(request));

    ASSERT_TRUE(run_until(world, 30_s, [&] { return outcome.has_value(); }));
    EXPECT_TRUE(*outcome) << "injection never succeeded in " << attempts << " attempts";
    // Ground truth: the bulb actually turned off.
    EXPECT_FALSE(world.bulb.state().powered);
    EXPECT_GE(attempts, 1);
    // And the legitimate connection survived the attack.
    world.run_for(500_ms);
    EXPECT_TRUE(world.central->connected());
    EXPECT_TRUE(world.peripheral->connected());
}

TEST(InjectionTest, HeuristicMatchesGroundTruthOnSuccess) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());

    AttackSession session(*world.attacker, *sniffed);
    session.start();
    world.run_for(300_ms);

    const int before = world.bulb.state().commands_received;
    std::optional<bool> outcome;
    AttackSession::InjectionRequest request;
    request.payload = att_over_l2cap(att::make_write_req(
        world.bulb.control_handle(), gatt::LightbulbProfile::cmd_set_color(9, 9, 9)));
    request.max_attempts = 60;
    request.done = [&](bool ok, int) { outcome = ok; };
    session.inject(std::move(request));

    ASSERT_TRUE(run_until(world, 30_s, [&] { return outcome.has_value(); }));
    ASSERT_TRUE(*outcome);
    // The heuristic claimed success; the device state agrees.
    EXPECT_EQ(world.bulb.state().commands_received, before + 1);
    EXPECT_EQ(world.bulb.state().r, 9);
}

TEST(InjectionTest, AttemptReportsAreEmitted) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());

    AttackSession session(*world.attacker, *sniffed);
    session.start();
    world.run_for(300_ms);

    std::vector<AttemptReport> reports;
    session.on_attempt = [&](const AttemptReport& report) { reports.push_back(report); };
    std::optional<bool> outcome;
    AttackSession::InjectionRequest request;
    request.payload = att_over_l2cap(att::make_write_req(
        world.bulb.control_handle(), gatt::LightbulbProfile::cmd_set_power(false)));
    request.max_attempts = 60;
    request.done = [&](bool ok, int) { outcome = ok; };
    session.inject(std::move(request));
    ASSERT_TRUE(run_until(world, 30_s, [&] { return outcome.has_value(); }));

    ASSERT_FALSE(reports.empty());
    // Attempts are numbered 1..n and the last one carries the verdict.
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].attempt, static_cast<int>(i) + 1);
    }
    EXPECT_EQ(reports.back().verdict.success(), *outcome);
    // The injected frame was transmitted before the predicted anchor (it
    // races *inside* the widened window).
    for (const auto& report : reports) {
        EXPECT_GT(report.observation.tx_duration, 0);
    }
}

TEST(InjectionTest, SessionFollowsWithoutInjecting) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());

    AttackSession session(*world.attacker, *sniffed);
    int master_frames = 0;
    int slave_frames = 0;
    session.on_packet = [&](const SniffedPacket& packet) {
        if (packet.sender == SniffedPacket::Sender::kMaster) ++master_frames;
        if (packet.sender == SniffedPacket::Sender::kSlave) ++slave_frames;
    };
    session.start();
    world.run_for(2_s);
    EXPECT_FALSE(session.lost());
    // hop interval 36 -> 45 ms -> ~44 events in 2 s.
    EXPECT_GT(master_frames, 30);
    EXPECT_GT(slave_frames, 30);
    EXPECT_TRUE(session.slave_bits().has_value());
    EXPECT_TRUE(session.master_bits().has_value());
}

TEST(InjectionTest, FollowsThroughChannelMapUpdate) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());

    AttackSession session(*world.attacker, *sniffed);
    session.start();
    world.run_for(300_ms);

    link::ChannelMap narrow{0x00000FFFFFULL};  // channels 0-19
    ASSERT_TRUE(world.central->connection()->start_channel_map_update(narrow));
    world.run_for(2_s);
    EXPECT_FALSE(session.lost());
    EXPECT_EQ(session.params().channel_map, narrow);
}

TEST(InjectionTest, FollowsThroughConnectionUpdate) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());

    AttackSession session(*world.attacker, *sniffed);
    std::optional<link::ConnectionUpdateInd> seen;
    session.on_update_sniffed = [&](const link::ConnectionUpdateInd& u) { seen = u; };
    session.start();
    world.run_for(300_ms);

    link::ConnectionUpdateInd update;
    update.interval = 60;  // 75 ms
    update.win_offset = 1;
    update.timeout = 300;
    ASSERT_TRUE(world.central->connection()->start_connection_update(update));
    world.run_for(3_s);
    EXPECT_FALSE(session.lost());
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(session.params().hop_interval, 60);
}

TEST(InjectionTest, DetectsConnectionLossOnTerminate) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());

    AttackSession session(*world.attacker, *sniffed);
    bool lost = false;
    session.on_connection_lost = [&] { lost = true; };
    session.start();
    world.run_for(300_ms);
    world.central->connection()->terminate();
    world.run_for(3_s);
    EXPECT_TRUE(lost);
    EXPECT_TRUE(session.lost());
}

TEST(InjectionTest, WorksAgainstRecoveredConnection) {
    // Full late-attacker chain: recover parameters mid-connection, then
    // inject (scenario A on a connection whose CONNECT_REQ was never seen).
    AttackWorld world;
    world.peripheral->start();
    link::ConnectionParams params;
    params.hop_interval = 24;
    params.timeout = 300;
    world.central->connect(world.peripheral->address(), params);
    ASSERT_TRUE(run_until(world, 2_s, [&] {
        return world.central->connected() && world.peripheral->connected();
    }));

    ConnectionRecovery recovery(*world.attacker);
    std::optional<SniffedConnection> recovered;
    recovery.on_recovered = [&](const SniffedConnection& conn) { recovered = conn; };
    recovery.start();
    ASSERT_TRUE(run_until(world, 15_s, [&] { return recovered.has_value(); }));

    AttackSession session(*world.attacker, *recovered);
    session.start();
    world.run_for(500_ms);
    ASSERT_FALSE(session.lost());

    std::optional<bool> outcome;
    AttackSession::InjectionRequest request;
    request.payload = att_over_l2cap(att::make_write_req(
        world.bulb.control_handle(), gatt::LightbulbProfile::cmd_set_power(false)));
    request.max_attempts = 60;
    request.done = [&](bool ok, int) { outcome = ok; };
    session.inject(std::move(request));
    ASSERT_TRUE(run_until(world, 30_s, [&] { return outcome.has_value(); }));
    EXPECT_TRUE(*outcome);
    EXPECT_FALSE(world.bulb.state().powered);
}

bool attacker_listening(world::World& world) {
    for (sim::Channel c = 0; c < sim::kNumChannels; ++c) {
        for (const sim::RadioDevice* d : world.medium.listeners_on(c)) {
            if (d == world.attacker.get()) return true;
        }
    }
    return false;
}

TEST(InjectionTest, RestartedSessionIgnoresCallbacksArmedBeforeStop) {
    // Between two events the session has armed the callback that opens its
    // next receive window.  stop() then start() re-predicts the anchor from
    // the capture, drift-free; in this world (seed 2) that window opens
    // about 20 µs after the one the stale callback would open — so a stale
    // callback that still ran would show as the radio listening early.
    world::World world(world::WorldSpec::protocol_test(), 2);
    const auto sniffed = world.establish_and_sniff(3_s);
    ASSERT_TRUE(sniffed.has_value());
    AttackSession session(*world.attacker, *sniffed);
    session.start();
    world.run_for(500_ms);
    const Duration w = session.estimated_widening() + AttackSession::Params{}.listen_margin;
    auto between_events = [&] {
        return !attacker_listening(world) &&
               session.predicted_next_anchor() - w > world.scheduler.now();
    };
    ASSERT_TRUE(world.run_until(100_ms, between_events));
    const TimePoint stale_window = session.predicted_next_anchor() - w;

    session.stop();
    session.start();
    // The restart first catches up on the event in progress (its window
    // already open, then closed as missed), then arms its own next window.
    ASSERT_TRUE(world.run_until(10_ms, between_events));
    const TimePoint fresh_window = session.predicted_next_anchor() - w;
    ASSERT_GT(fresh_window, stale_window);
    while (world.scheduler.now() < fresh_window && world.scheduler.run_one()) {
        if (world.scheduler.now() < fresh_window) {
            ASSERT_FALSE(attacker_listening(world)) << "listening at " << world.scheduler.now();
        }
    }
    EXPECT_TRUE(attacker_listening(world));  // the fresh window did open
}

}  // namespace
}  // namespace injectable
