#include <gtest/gtest.h>

#include "attack_world.hpp"
#include "core/sniffer.hpp"
#include "phy/crc.hpp"

namespace injectable {
namespace {

using namespace ble;
using test::AttackWorld;

TEST(Mod37InverseTest, AllValuesInvert) {
    for (std::uint8_t v = 1; v < 37; ++v) {
        const std::uint8_t inv = mod37_inverse(v);
        EXPECT_EQ((v * inv) % 37, 1) << int(v);
    }
    EXPECT_EQ(mod37_inverse(0), 0);
    EXPECT_EQ(mod37_inverse(37), 0);
    EXPECT_EQ(mod37_inverse(38), 1);  // 38 ≡ 1
}

TEST(AdvSnifferTest, CapturesConnectReq) {
    AttackWorld world;
    const auto sniffed = world.establish_and_sniff();
    ASSERT_TRUE(sniffed.has_value());
    EXPECT_TRUE(sniffed->from_connect_req);
    // The sniffed parameters are the live connection's parameters.
    ASSERT_NE(world.central->connection(), nullptr);
    EXPECT_EQ(sniffed->params.access_address,
              world.central->connection()->params().access_address);
    EXPECT_EQ(sniffed->params.crc_init, world.central->connection()->params().crc_init);
    EXPECT_EQ(sniffed->params.hop_interval, world.spec.hop_interval);
}

TEST(AdvSnifferTest, ReportsAdvertisements) {
    AttackWorld world;
    AdvSniffer sniffer(*world.attacker);
    int advs = 0;
    sniffer.on_advertisement = [&](const link::AdvPduView& pdu, TimePoint, std::uint8_t) {
        if (pdu.type == link::AdvPduType::kAdvInd) ++advs;
    };
    sniffer.start();
    world.peripheral->start();
    world.run_for(1_s);
    EXPECT_GT(advs, 3);
}

TEST(ConnectionRecoveryTest, RecoversRunningConnection) {
    AttackWorld world;
    // Connection established without the attacker listening.
    world.peripheral->start();
    link::ConnectionParams params;
    params.hop_interval = 24;  // 30 ms: recovery needs ~37-event revisits
    params.timeout = 300;
    params.hop_increment = 9;
    world.central->connect(world.peripheral->address(), params);
    {
        const TimePoint deadline = world.scheduler.now() + 3_s;
        while (world.scheduler.now() < deadline &&
               !(world.central->connected() && world.peripheral->connected())) {
            if (!world.scheduler.run_one()) break;
        }
    }
    ASSERT_TRUE(world.central->connected());
    const auto& live = world.central->connection()->params();

    // Now the attacker shows up late and recovers the parameters.
    ConnectionRecovery recovery(*world.attacker);
    std::optional<SniffedConnection> recovered;
    recovery.on_recovered = [&](const SniffedConnection& conn) { recovered = conn; };
    recovery.start();
    // 37-event revisit at 30 ms = 1.11 s per sighting; give it time for the
    // 3 sightings + hop measurement.
    world.run_for(10_s);
    ASSERT_TRUE(recovered.has_value()) << "recovery did not converge";
    EXPECT_EQ(recovered->params.access_address, live.access_address);
    EXPECT_EQ(recovered->params.crc_init, live.crc_init);
    EXPECT_EQ(recovered->params.hop_interval, live.hop_interval);
    EXPECT_EQ(recovered->params.hop_increment, live.hop_increment);
    EXPECT_FALSE(recovered->from_connect_req);
}

TEST(ConnectionRecoveryTest, PhasesProgressInOrder) {
    AttackWorld world;
    world.peripheral->start();
    link::ConnectionParams params;
    params.hop_interval = 24;
    params.timeout = 300;
    world.central->connect(world.peripheral->address(), params);
    world.run_for(1_s);
    ASSERT_TRUE(world.central->connected());

    ConnectionRecovery recovery(*world.attacker);
    std::vector<std::string> phases;
    recovery.on_progress = [&](const std::string& phase) { phases.push_back(phase); };
    bool done = false;
    recovery.on_recovered = [&](const SniffedConnection&) { done = true; };
    recovery.start();
    world.run_for(10_s);
    ASSERT_TRUE(done);
    EXPECT_EQ(phases,
              (std::vector<std::string>{"aa", "crc", "interval", "hop"}));
}

}  // namespace
}  // namespace injectable
