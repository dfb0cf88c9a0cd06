// Link-layer device roles at the GAP level: advertising cadence, scanning,
// active scanning (SCAN_REQ/SCAN_RSP), re-advertising after disconnection,
// and serial reconnections.
#include <gtest/gtest.h>

#include "link/device.hpp"
#include "phy/access_address.hpp"
#include "phy/crc.hpp"
#include "phy/frame.hpp"
#include "sim/medium.hpp"

namespace ble::link {
namespace {

struct DeviceBed {
    DeviceBed() : rng(31), medium(scheduler, rng.fork(), quiet()) {}

    static sim::PathLossModel quiet() {
        sim::PathLossParams p;
        p.fading_sigma_db = 0.0;
        return sim::PathLossModel{p};
    }

    std::unique_ptr<LinkLayerDevice> make(const std::string& name, sim::Position pos,
                                          Duration adv_interval = 100_ms) {
        LinkLayerDeviceConfig cfg;
        cfg.radio.name = name;
        cfg.radio.position = pos;
        cfg.address = DeviceAddress::random_static(rng);
        cfg.adv_interval = adv_interval;
        return std::make_unique<LinkLayerDevice>(scheduler, medium, rng.fork(),
                                                 std::move(cfg));
    }

    void run_for(Duration d) { scheduler.run_until(scheduler.now() + d); }

    Rng rng;
    sim::Scheduler scheduler;
    sim::RadioMedium medium;
};

TEST(DeviceTest, AdvertisingUsesAllThreeChannels) {
    DeviceBed bed;
    auto advertiser = bed.make("adv", {0, 0});
    std::set<sim::Channel> channels;
    bed.medium.add_tx_observer(
        [&](const sim::RadioDevice&, sim::Channel ch, TimePoint, const sim::AirFrame&) {
            channels.insert(ch);
        });
    advertiser->start_advertising(make_adv_name("dut"));
    bed.run_for(500_ms);
    EXPECT_EQ(channels, (std::set<sim::Channel>{37, 38, 39}));
}

TEST(DeviceTest, AdvertisingIntervalRespected) {
    DeviceBed bed;
    auto advertiser = bed.make("adv", {0, 0}, 200_ms);
    std::vector<TimePoint> ch37_times;
    bed.medium.add_tx_observer(
        [&](const sim::RadioDevice&, sim::Channel ch, TimePoint t, const sim::AirFrame&) {
            if (ch == 37) ch37_times.push_back(t);
        });
    advertiser->start_advertising(make_adv_name("dut"));
    bed.run_for(2'000_ms);
    ASSERT_GE(ch37_times.size(), 5u);
    for (std::size_t i = 1; i < ch37_times.size(); ++i) {
        const double gap_ms = to_ms(ch37_times[i] - ch37_times[i - 1]);
        // advInterval + advDelay in [0, 10] ms.
        EXPECT_GE(gap_ms, 199.0);
        EXPECT_LE(gap_ms, 215.0);
    }
}

TEST(DeviceTest, ScannerSeesAdvertisements) {
    DeviceBed bed;
    auto advertiser = bed.make("adv", {0, 0}, 60_ms);
    auto scanner = bed.make("scan", {1, 0});
    int seen = 0;
    std::optional<std::string> name;
    scanner->start_scanning([&](const AdvPduView& pdu, TimePoint, double rssi, sim::Channel) {
        if (pdu.type != AdvPduType::kAdvInd) return;
        ++seen;
        EXPECT_LT(rssi, 0.0);
        if (const auto adv = AdvDataPdu::parse(pdu)) name = parse_adv_name(adv->data);
    });
    advertiser->start_advertising(make_adv_name("CoffeeMachine"));
    bed.run_for(2_s);
    EXPECT_GT(seen, 5);
    ASSERT_TRUE(name.has_value());
    EXPECT_EQ(*name, "CoffeeMachine");
}

TEST(DeviceTest, StopScanningStops) {
    DeviceBed bed;
    auto advertiser = bed.make("adv", {0, 0}, 60_ms);
    auto scanner = bed.make("scan", {1, 0});
    int seen = 0;
    scanner->start_scanning(
        [&](const AdvPduView&, TimePoint, double, sim::Channel) { ++seen; });
    advertiser->start_advertising(make_adv_name("dut"));
    bed.run_for(500_ms);
    scanner->stop_scanning();
    const int at_stop = seen;
    bed.run_for(1_s);
    EXPECT_EQ(seen, at_stop);
}

TEST(DeviceTest, ScanResponseDelivered) {
    // Active scanning: a SCAN_REQ T_IFS after the ADV_IND yields a SCAN_RSP.
    DeviceBed bed;
    auto advertiser = bed.make("adv", {0, 0}, 60_ms);
    advertiser->set_scan_response(make_adv_name("MoreInfo"));
    auto scanner = bed.make("scan", {1, 0});

    std::optional<std::string> scan_rsp_name;
    std::optional<TimePoint> adv_end;
    scanner->start_scanning([&](const AdvPduView& pdu, TimePoint end, double, sim::Channel ch) {
        if (pdu.type == AdvPduType::kAdvInd && !adv_end) {
            adv_end = end;
            // Issue a SCAN_REQ by hand, T_IFS after the ADV_IND.
            if (const auto adv = AdvDataPdu::parse(pdu)) {
                const DeviceAddress target = adv->advertiser;
                (void)bed.scheduler.schedule_at(end + kTifs, [&, target, ch] {
                    ByteWriter w(12);
                    scanner->address().write_to(w);
                    target.write_to(w);
                    AdvPdu req;
                    req.type = AdvPduType::kScanReq;
                    req.tx_add = true;
                    req.rx_add = target.type() == AddressType::kRandom;
                    req.payload = w.take();
                    scanner->transmit(ch, phy::make_air_frame(
                                              phy::kAdvertisingAccessAddress,
                                              req.serialize(), phy::kAdvertisingCrcInit));
                });
            }
        }
        if (pdu.type == AdvPduType::kScanRsp) {
            if (const auto rsp = AdvDataPdu::parse(pdu)) {
                scan_rsp_name = parse_adv_name(rsp->data);
            }
        }
    });
    advertiser->start_advertising(make_adv_name("dut"));
    bed.run_for(2_s);
    ASSERT_TRUE(scan_rsp_name.has_value());
    EXPECT_EQ(*scan_rsp_name, "MoreInfo");
}

TEST(DeviceTest, ReadvertisesAfterDisconnect) {
    DeviceBed bed;
    auto peripheral = bed.make("per", {0, 0}, 50_ms);
    auto central = bed.make("cen", {1, 0});
    Connection* master = nullptr;
    central->on_connection_established = [&](Connection& c) { master = &c; };
    peripheral->start_advertising(make_adv_name("dut"));
    ConnectionParams params;
    params.hop_interval = 16;
    central->connect_to(peripheral->address(), params);
    TimePoint deadline = bed.scheduler.now() + 3_s;
    while (bed.scheduler.now() < deadline && master == nullptr) {
        if (!bed.scheduler.run_one()) break;
    }
    ASSERT_NE(master, nullptr);
    EXPECT_FALSE(peripheral->advertising());

    master->terminate();
    bed.run_for(500_ms);
    // The peripheral is advertising again and can be found by a scanner.
    EXPECT_TRUE(peripheral->advertising());
}

TEST(DeviceTest, ReconnectAfterDisconnect) {
    DeviceBed bed;
    auto peripheral = bed.make("per", {0, 0}, 50_ms);
    auto central = bed.make("cen", {1, 0});
    int connections = 0;
    central->on_connection_established = [&](Connection&) { ++connections; };
    peripheral->start_advertising(make_adv_name("dut"));

    for (int round = 0; round < 3; ++round) {
        ConnectionParams params;
        params.hop_interval = 16;
        central->connect_to(peripheral->address(), params);
        const TimePoint deadline = bed.scheduler.now() + 3_s;
        while (bed.scheduler.now() < deadline && connections == round) {
            if (!bed.scheduler.run_one()) break;
        }
        ASSERT_EQ(connections, round + 1) << "round " << round;
        bed.run_for(200_ms);
        ASSERT_NE(central->connection(), nullptr);
        central->connection()->terminate();
        bed.run_for(500_ms);
    }
    EXPECT_EQ(connections, 3);
}

}  // namespace
}  // namespace ble::link
