// Property tests: the Link Layer's delivery guarantees under hostile RF.
//
// The SN/NESN scheme must deliver every L2CAP fragment exactly once, in
// order, no matter how many frames a jammer corrupts — the property the
// paper's flow-control discussion (§III-B.6) rests on, and the reason a
// failed injection attempt never desynchronises the victims.
#include <gtest/gtest.h>

#include "link/connection.hpp"
#include "link/device.hpp"
#include "testbed.hpp"

namespace ble::link {
namespace {

using test::Testbed;

/// Blind jammer: stomps on a given channel range with periodic noise bursts.
class Jammer : public sim::RadioDevice {
public:
    Jammer(sim::Scheduler& scheduler, sim::RadioMedium& medium, Rng rng,
           sim::RadioDeviceConfig cfg, Duration period)
        : sim::RadioDevice(scheduler, medium, rng, cfg), period_(period) {}

    void start() { schedule_burst(); }
    void on_rx(const sim::RxFrame&) override {}

    int bursts = 0;

private:
    void schedule_burst() {
        (void)scheduler().schedule_after(period_, [this] {
            sim::AirFrame noise;
            noise.bytes = Bytes(20, 0xFF);
            transmit(static_cast<sim::Channel>(rng().next_below(37)), noise);
            ++bursts;
            schedule_burst();
        });
    }

    Duration period_;
};

struct JammedPair {
    explicit JammedPair(std::uint64_t seed, Duration jam_period) : bed(seed) {
        peripheral = bed.make_device("peripheral", {0.0, 0.0});
        central = bed.make_device("central", {1.0, 0.0});
        sim::RadioDeviceConfig jam_cfg;
        jam_cfg.name = "jammer";
        jam_cfg.position = {0.5, 0.3};
        jammer = std::make_unique<Jammer>(bed.scheduler, bed.medium, bed.rng.fork(),
                                          jam_cfg, jam_period);

        ConnectionHooks p_hooks;
        p_hooks.on_data = [this](const DataPduView& pdu) {
            slave_rx.emplace_back(pdu.payload.begin(), pdu.payload.end());
        };
        p_hooks.on_disconnected = [this](DisconnectReason) { slave_down = true; };
        peripheral->set_connection_hooks(std::move(p_hooks));
        peripheral->on_connection_established = [this](Connection& c) { slave = &c; };

        ConnectionHooks c_hooks;
        c_hooks.on_data = [this](const DataPduView& pdu) {
            master_rx.emplace_back(pdu.payload.begin(), pdu.payload.end());
        };
        c_hooks.on_event_closed = [this](const ConnectionEventReport& r) {
            crc_errors += r.crc_errors;
        };
        c_hooks.on_disconnected = [this](DisconnectReason) { master_down = true; };
        central->set_connection_hooks(std::move(c_hooks));
        central->on_connection_established = [this](Connection& c) { master = &c; };
    }

    bool establish() {
        peripheral->start_advertising(make_adv_name("dut"));
        ConnectionParams params;
        params.hop_interval = 16;  // 20 ms: plenty of jam exposure
        params.timeout = 300;
        central->connect_to(peripheral->address(), params);
        const TimePoint deadline = bed.scheduler.now() + 3_s;
        while (bed.scheduler.now() < deadline && (master == nullptr || slave == nullptr)) {
            if (!bed.scheduler.run_one()) break;
        }
        return master != nullptr && slave != nullptr;
    }

    Testbed bed;
    std::unique_ptr<LinkLayerDevice> peripheral;
    std::unique_ptr<LinkLayerDevice> central;
    std::unique_ptr<Jammer> jammer;
    Connection* master = nullptr;
    Connection* slave = nullptr;
    std::vector<Bytes> master_rx;
    std::vector<Bytes> slave_rx;
    int crc_errors = 0;
    bool master_down = false;
    bool slave_down = false;
};

class JammedDeliveryTest : public ::testing::TestWithParam<int> {};

TEST_P(JammedDeliveryTest, ExactlyOnceInOrderUnderJamming) {
    const auto seed = static_cast<std::uint64_t>(GetParam());
    JammedPair pair(seed, 4_ms);  // aggressive: a burst every 4 ms
    ASSERT_TRUE(pair.establish());
    pair.jammer->start();

    constexpr int kMessages = 30;
    for (std::uint8_t i = 0; i < kMessages; ++i) {
        pair.master->send_data(Llid::kDataStart, Bytes{0xA0, i});
        pair.slave->send_data(Llid::kDataStart, Bytes{0xB0, i});
    }
    pair.bed.run_for(20_s);

    ASSERT_FALSE(pair.master_down) << "jamming must degrade, not kill";
    ASSERT_FALSE(pair.slave_down);
    // The jammer did real damage...
    EXPECT_GT(pair.jammer->bursts, 1000);
    // ...but every message arrived exactly once, in order.
    ASSERT_EQ(pair.slave_rx.size(), kMessages) << "seed " << seed;
    ASSERT_EQ(pair.master_rx.size(), kMessages);
    for (std::uint8_t i = 0; i < kMessages; ++i) {
        EXPECT_EQ(pair.slave_rx[i], (Bytes{0xA0, i})) << "slave pos " << int(i);
        EXPECT_EQ(pair.master_rx[i], (Bytes{0xB0, i})) << "master pos " << int(i);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JammedDeliveryTest, ::testing::Values(1, 2, 3, 4, 5));

class HopIntervalSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HopIntervalSweepTest, ConnectionStableAcrossHopIntervals) {
    const auto hop = static_cast<std::uint16_t>(GetParam());
    Testbed bed(100 + hop);
    auto peripheral = bed.make_device("peripheral", {0.0, 0.0});
    auto central = bed.make_device("central", {1.0, 0.0});
    Connection* master = nullptr;
    Connection* slave = nullptr;
    int slave_observed = 0;
    int slave_events = 0;
    ConnectionHooks p_hooks;
    p_hooks.on_event_closed = [&](const ConnectionEventReport& r) {
        ++slave_events;
        slave_observed += r.anchor_observed ? 1 : 0;
    };
    peripheral->set_connection_hooks(std::move(p_hooks));
    peripheral->on_connection_established = [&](Connection& c) { slave = &c; };
    central->on_connection_established = [&](Connection& c) { master = &c; };

    peripheral->start_advertising(make_adv_name("dut"));
    ConnectionParams params;
    params.hop_interval = hop;
    params.timeout = static_cast<std::uint16_t>(
        std::clamp<std::uint32_t>(hop * 2, 100, 3200));
    central->connect_to(peripheral->address(), params);
    const TimePoint deadline = bed.scheduler.now() + 3_s;
    while (bed.scheduler.now() < deadline && (master == nullptr || slave == nullptr)) {
        if (!bed.scheduler.run_one()) break;
    }
    ASSERT_NE(master, nullptr) << "hop " << hop;
    ASSERT_NE(slave, nullptr);

    bed.run_for(static_cast<Duration>(40) * connection_interval(hop));
    ASSERT_GE(slave_events, 30);
    // The slave hears (nearly) every anchor: the widening absorbs all drift.
    EXPECT_GE(slave_observed, slave_events - 1) << "hop " << hop;
}

INSTANTIATE_TEST_SUITE_P(HopIntervals, HopIntervalSweepTest,
                         ::testing::Values(6, 16, 36, 80, 160, 320, 800, 1600, 3200));

class LatencySweepTest : public ::testing::TestWithParam<int> {};

TEST_P(LatencySweepTest, SlaveLatencySavesListeningWithoutDataLoss) {
    const auto latency = static_cast<std::uint16_t>(GetParam());
    Testbed bed(200 + latency);
    auto peripheral = bed.make_device("peripheral", {0.0, 0.0});
    auto central = bed.make_device("central", {1.0, 0.0});
    Connection* master = nullptr;
    Connection* slave = nullptr;
    std::vector<Bytes> slave_rx;
    int slave_events = 0;
    ConnectionHooks p_hooks;
    p_hooks.on_data = [&](const DataPduView& pdu) {
        slave_rx.emplace_back(pdu.payload.begin(), pdu.payload.end());
    };
    p_hooks.on_event_closed = [&](const ConnectionEventReport&) { ++slave_events; };
    peripheral->set_connection_hooks(std::move(p_hooks));
    peripheral->on_connection_established = [&](Connection& c) { slave = &c; };
    central->on_connection_established = [&](Connection& c) { master = &c; };

    peripheral->start_advertising(make_adv_name("dut"));
    ConnectionParams params;
    params.hop_interval = 16;
    params.latency = latency;
    params.timeout = 400;
    central->connect_to(peripheral->address(), params);
    const TimePoint deadline = bed.scheduler.now() + 3_s;
    while (bed.scheduler.now() < deadline && (master == nullptr || slave == nullptr)) {
        if (!bed.scheduler.run_one()) break;
    }
    ASSERT_NE(master, nullptr);
    ASSERT_NE(slave, nullptr);

    bed.run_for(2_s);
    const int baseline_events = 2'000 / 20;  // events the master ran
    if (latency > 0) {
        // The slave skipped most events...
        EXPECT_LT(slave_events * (latency / 2 + 1), baseline_events);
    }
    // ...yet late data still arrives (the slave wakes when it has traffic and
    // the master retransmits until acknowledged).
    master->send_data(Llid::kDataStart, Bytes{0x42});
    bed.run_for(2_s);
    ASSERT_EQ(slave_rx.size(), 1u) << "latency " << latency;
    EXPECT_EQ(slave_rx[0], Bytes{0x42});
}

INSTANTIATE_TEST_SUITE_P(Latencies, LatencySweepTest, ::testing::Values(0, 1, 4, 10));

}  // namespace
}  // namespace ble::link
