#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <tuple>
#include <vector>

#include "sim/medium.hpp"
#include "sim/radio_device.hpp"

namespace ble::sim {

/// White-box access to the medium's in-flight ring and pair-loss cache.
struct MediumTestPeer {
    static bool holds(const RadioMedium& medium, std::uint64_t tx_id) {
        return medium.find(tx_id) != nullptr;
    }
    static std::size_t ring_size(const RadioMedium& medium) { return medium.ring_.size(); }
    static void finish(RadioMedium& medium, std::uint64_t tx_id) {
        medium.finish_transmission(tx_id);
    }
    static std::size_t pair_slot(const RadioMedium& medium, const RadioDevice& sender,
                                 const RadioDevice& receiver) {
        return medium.pair_slot(sender, receiver);
    }
};

namespace {

/// An RxFrame kept past its on_rx call: the bytes copied out of the
/// medium's buffer, every other field as delivered.
struct HeardFrame {
    explicit HeardFrame(const RxFrame& frame)
        : bytes(frame.bytes.begin(), frame.bytes.end()),
          start(frame.start),
          end(frame.end),
          channel(frame.channel),
          rssi_dbm(frame.rssi_dbm),
          corrupted_by_medium(frame.corrupted_by_medium),
          transmission_id(frame.transmission_id) {}

    Bytes bytes;
    TimePoint start;
    TimePoint end;
    Channel channel;
    double rssi_dbm;
    bool corrupted_by_medium;
    std::uint64_t transmission_id;
};

/// Records everything it hears.
class ProbeDevice : public RadioDevice {
public:
    using RadioDevice::RadioDevice;
    void on_rx(const RxFrame& frame) override { received.emplace_back(frame); }
    void on_tx_complete() override { ++tx_done; }

    std::vector<HeardFrame> received;
    int tx_done = 0;
};

AirFrame test_frame(std::size_t n = 16, std::uint8_t fill = 0x5A) {
    AirFrame f;
    f.bytes = Bytes(n, fill);
    return f;
}

struct MediumFixture : ::testing::Test {
    MediumFixture()
        : medium(scheduler, Rng(99), PathLossModel(no_fading()), CaptureModel{}) {}

    static PathLossParams no_fading() {
        PathLossParams p;
        p.fading_sigma_db = 0.0;
        return p;
    }

    std::unique_ptr<ProbeDevice> make(const std::string& name, Position pos) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(7), cfg);
    }

    Scheduler scheduler;
    RadioMedium medium;
};

TEST_F(MediumFixture, DeliversToListener) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame());
    scheduler.run_all();
    ASSERT_EQ(rx->received.size(), 1u);
    EXPECT_EQ(rx->received[0].bytes, Bytes(16, 0x5A));
    EXPECT_EQ(rx->received[0].channel, 7);
    EXPECT_FALSE(rx->received[0].corrupted_by_medium);
    // 0 dBm - 40 dB at 1 m.
    EXPECT_NEAR(rx->received[0].rssi_dbm, -40.0, 0.01);
    EXPECT_EQ(tx->tx_done, 1);
}

TEST_F(MediumFixture, FrameTimingMatchesAirtime) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(3);
    tx->transmit(3, test_frame(16));
    scheduler.run_all();
    ASSERT_EQ(rx->received.size(), 1u);
    // preamble 8 µs + 16 bytes * 8 µs = 136 µs.
    EXPECT_EQ(rx->received[0].end - rx->received[0].start, 136_us);
}

TEST_F(MediumFixture, NoDeliveryOnOtherChannel) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(8);
    tx->transmit(7, test_frame());
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, NoDeliveryWhenNotListening) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    tx->transmit(7, test_frame());
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, ListeningMidFrameCannotSync) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    tx->transmit(7, test_frame());
    (void)scheduler.schedule_at(20'000, [&] { rx->listen(7); });  // 20 µs in
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, ChannelSwitchDropsLock) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame());
    (void)scheduler.schedule_at(20'000, [&] { rx->listen(9); });
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, HalfDuplexTransmitterMissesFrames) {
    auto a = make("a", {0, 0});
    auto b = make("b", {1, 0});
    a->listen(7);
    // a starts transmitting; b's frame starts during a's transmission.
    a->transmit(7, test_frame(30));
    (void)scheduler.schedule_at(10'000, [&] { b->transmit(7, test_frame(4)); });
    scheduler.run_all();
    EXPECT_TRUE(a->received.empty());
}

TEST_F(MediumFixture, OutOfRangeReceiverDoesNotLock) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {100'000, 0});  // ~150 dB path loss
    rx->listen(7);
    tx->transmit(7, test_frame());
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());
}

TEST_F(MediumFixture, ReceivingReflectsLockState) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    EXPECT_FALSE(rx->receiving());
    tx->transmit(7, test_frame());
    bool during = false;
    (void)scheduler.schedule_at(50'000, [&] { during = rx->receiving(); });
    scheduler.run_all();
    EXPECT_TRUE(during);
    EXPECT_FALSE(rx->receiving());
}

TEST_F(MediumFixture, StrongInterfererCorruptsLockedFrame) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {2, 0});
    auto jam = make("jam", {2.1, 0.1});  // right next to the receiver
    rx->listen(7);
    // Interferer 30 dB stronger at rx, overlapping the tail of the frame.
    int corrupted = 0;
    int delivered = 0;
    for (int i = 0; i < 50; ++i) {
        rx->received.clear();
        rx->listen(7);
        tx->transmit(7, test_frame(24));
        (void)scheduler.schedule_after(80'000, [&] { jam->transmit(7, test_frame(24, 0x11)); });
        scheduler.run_all();
        if (!rx->received.empty()) {
            ++delivered;
            corrupted += rx->received[0].corrupted_by_medium ? 1 : 0;
        }
    }
    // The tail is essentially always mangled (sync was clean, so frames are
    // delivered corrupted rather than dropped).
    EXPECT_GT(delivered, 40);
    EXPECT_GT(corrupted, 40);
}

TEST_F(MediumFixture, LaterFrameNotDeliveredToLockedReceiver) {
    auto tx1 = make("tx1", {0, 0});
    auto tx2 = make("tx2", {0.5, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx1->transmit(7, test_frame(30, 0xAA));
    (void)scheduler.schedule_at(30'000, [&] { tx2->transmit(7, test_frame(4, 0xBB)); });
    scheduler.run_all();
    // At most the first frame arrives (possibly corrupted); the second is
    // never delivered because the receiver was locked when it started.
    for (const auto& frame : rx->received) {
        EXPECT_NE(frame.bytes, Bytes(4, 0xBB));
    }
}

TEST_F(MediumFixture, EqualPowerOverlapSuppressesSyncOnHeadCollision) {
    // Two equal-power frames starting 8 µs apart: the second one's header
    // bytes overlap the first, and vice versa — at 0 dB SIR most attempts
    // corrupt the sync region of at least one frame.
    auto tx1 = make("tx1", {0, 0});
    auto tx2 = make("tx2", {2, 0});
    auto rx = make("rx", {1, 0});  // equidistant
    int both_delivered = 0;
    for (int i = 0; i < 30; ++i) {
        rx->received.clear();
        rx->listen(7);
        tx1->transmit(7, test_frame(20, 0xAA));
        (void)scheduler.schedule_after(8'000, [&] { tx2->transmit(7, test_frame(20, 0xBB)); });
        scheduler.run_all();
        both_delivered += rx->received.size() == 1 &&
                                  !rx->received[0].corrupted_by_medium
                              ? 1
                              : 0;
    }
    EXPECT_LT(both_delivered, 20);
}

TEST_F(MediumFixture, TxObserverSeesAllTransmissions) {
    auto tx = make("tx", {0, 0});
    int observed = 0;
    Channel seen_channel = 0;
    medium.add_tx_observer([&](const RadioDevice& sender, Channel ch, TimePoint,
                               const AirFrame&) {
        ++observed;
        seen_channel = ch;
        EXPECT_EQ(sender.name(), "tx");
    });
    tx->transmit(12, test_frame());
    scheduler.run_all();
    EXPECT_EQ(observed, 1);
    EXPECT_EQ(seen_channel, 12);
}

TEST_F(MediumFixture, BusCarriesTxStartAndRxDecision) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    std::vector<obs::TxStart> tx_events;
    std::vector<obs::RxDecision> rx_events;
    obs::ScopedSubscription sub(medium.bus(), [&](const obs::Event& event) {
        if (const auto* t = std::get_if<obs::TxStart>(&event)) {
            tx_events.push_back(*t);
        } else if (const auto* r = std::get_if<obs::RxDecision>(&event)) {
            rx_events.push_back(*r);
        }
    });
    rx->listen(7);
    tx->transmit(7, test_frame());
    scheduler.run_all();

    ASSERT_EQ(tx_events.size(), 1u);
    EXPECT_EQ(tx_events[0].channel, 7);
    EXPECT_EQ(tx_events[0].duration, 136_us);  // preamble + 16 bytes at 8 µs

    ASSERT_EQ(rx_events.size(), 1u);
    EXPECT_EQ(rx_events[0].tx_id, tx_events[0].tx_id);
    EXPECT_EQ(rx_events[0].verdict, obs::RxVerdict::kDelivered);
    EXPECT_NEAR(rx_events[0].rssi_dbm, -40.0, 0.01);
    EXPECT_EQ(rx_events[0].corrupted_bytes, 0);
}

TEST_F(MediumFixture, BusVerdictMatchesDelivery) {
    // Repeated head-on collisions: every round yields exactly one RxDecision,
    // and its verdict agrees with what the receiver actually got (lost-sync
    // => nothing, corrupted => corrupted_by_medium, delivered => clean).
    auto tx1 = make("tx1", {0, 0});
    auto tx2 = make("tx2", {2, 0});
    auto rx = make("rx", {1, 0});  // equidistant: 0 dB SIR
    std::vector<obs::RxDecision> decisions;
    obs::ScopedSubscription sub(medium.bus(), [&](const obs::Event& event) {
        if (const auto* r = std::get_if<obs::RxDecision>(&event)) decisions.push_back(*r);
    });
    int lost = 0;
    for (int i = 0; i < 30; ++i) {
        rx->received.clear();
        decisions.clear();
        rx->listen(7);
        tx1->transmit(7, test_frame(20, 0xAA));
        (void)scheduler.schedule_after(8'000, [&] { tx2->transmit(7, test_frame(20, 0xBB)); });
        scheduler.run_all();
        ASSERT_EQ(decisions.size(), 1u);
        switch (decisions[0].verdict) {
            case obs::RxVerdict::kLostSync:
                EXPECT_TRUE(rx->received.empty());
                EXPECT_GT(decisions[0].sync_bit_errors, medium.params().max_sync_bit_errors);
                ++lost;
                break;
            case obs::RxVerdict::kDeliveredCorrupted:
                ASSERT_EQ(rx->received.size(), 1u);
                EXPECT_TRUE(rx->received[0].corrupted_by_medium);
                EXPECT_GT(decisions[0].corrupted_bytes, 0);
                break;
            case obs::RxVerdict::kDelivered:
                ASSERT_EQ(rx->received.size(), 1u);
                EXPECT_FALSE(rx->received[0].corrupted_by_medium);
                EXPECT_EQ(decisions[0].corrupted_bytes, 0);
                break;
        }
    }
    EXPECT_GT(lost, 0);  // at 0 dB SIR some heads must die
}

TEST_F(MediumFixture, DetachedSenderDoesNotDangle) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame());
    tx.reset();  // destroyed mid-frame
    scheduler.run_all();
    // No crash; frame is treated as gone (sender unknown => no power).
    SUCCEED();
}

// --- per-channel interest lists & pooled frames (DESIGN.md §10) ---

TEST_F(MediumFixture, ListenersOnFollowsTuneAndDetach) {
    auto a = make("a", {0, 0});
    auto b = make("b", {1, 0});
    auto c = make("c", {2, 0});
    a->listen(7);
    b->listen(7);
    c->listen(9);
    ASSERT_EQ(medium.listeners_on(7).size(), 2u);
    EXPECT_EQ(medium.listeners_on(7)[0]->name(), "a");
    EXPECT_EQ(medium.listeners_on(7)[1]->name(), "b");
    ASSERT_EQ(medium.listeners_on(9).size(), 1u);

    b->listen(9);  // re-tune
    ASSERT_EQ(medium.listeners_on(7).size(), 1u);
    ASSERT_EQ(medium.listeners_on(9).size(), 2u);
    // Interest lists sort by attach order, not listen order: b attached
    // before c, so it walks first despite re-tuning later — exactly the
    // historical all-device walk filtered to the channel.
    EXPECT_EQ(medium.listeners_on(9)[0]->name(), "b");
    EXPECT_EQ(medium.listeners_on(9)[1]->name(), "c");

    b->stop_listening();
    ASSERT_EQ(medium.listeners_on(9).size(), 1u);
    c.reset();  // detach while tuned
    EXPECT_TRUE(medium.listeners_on(9).empty());
}

TEST_F(MediumFixture, ReTuneDuringInFlightFrameMovesInterest) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame(30));
    (void)scheduler.schedule_at(20'000, [&] {
        rx->listen(9);
        EXPECT_TRUE(medium.listeners_on(7).empty());
        ASSERT_EQ(medium.listeners_on(9).size(), 1u);
    });
    scheduler.run_all();
    EXPECT_TRUE(rx->received.empty());  // the re-tune dropped the lock
}

TEST_F(MediumFixture, DetachedLockedReceiverIsSafe) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    tx->transmit(7, test_frame(30));
    (void)scheduler.schedule_at(20'000, [&] { rx.reset(); });  // locked, mid-frame
    scheduler.run_all();
    EXPECT_EQ(tx->tx_done, 1);
    EXPECT_TRUE(medium.listeners_on(7).empty());
}

TEST_F(MediumFixture, TransmitterLeavesItsChannelInterestList) {
    // Half-duplex: transmit() drops the sender's own listen before the lock
    // walk, so a transmitter never sits in its channel's interest list.
    auto a = make("a", {0, 0});
    a->listen(7);
    ASSERT_EQ(medium.listeners_on(7).size(), 1u);
    a->transmit(7, test_frame(30));
    EXPECT_TRUE(medium.listeners_on(7).empty());
    scheduler.run_all();
    EXPECT_TRUE(a->received.empty());
}

TEST_F(MediumFixture, FramePoolRecyclesDeliveryBuffers) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    for (int i = 0; i < 4; ++i) {
        rx->listen(7);
        tx->transmit(7, test_frame());
        scheduler.run_for(10_ms);  // frame + GC horizon
    }
    EXPECT_EQ(rx->received.size(), 4u);
    // Retired payloads land back in the freelist.
    EXPECT_GE(medium.frame_pool().pooled(), 1u);
}

// One serial log of everything every receiver heard, bit-exact: receiver
// name, payload, RSSI and the corruption flag, in attach/delivery order.
using DeliveryLog = std::vector<std::tuple<std::string, Bytes, double, bool>>;

/// `move_midway`: after round 20, r2 walks behind a new wall and r6 moves
/// off-axis — geometry changes after the first transmissions, which the
/// medium's per-pair path-loss cache must pick up.
DeliveryLog run_contended_scenario(bool move_midway = false) {
    Scheduler scheduler;
    PathLossParams pl;
    pl.fading_sigma_db = 6.0;  // per-listener fading draws exercise RNG order
    RadioMedium medium(scheduler, Rng(99), PathLossModel(pl), CaptureModel{}, MediumParams{});
    auto mk = [&](const std::string& name, Position pos, std::uint64_t seed) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(seed), cfg);
    };
    auto tx1 = mk("tx1", {0, 0}, 1);
    auto tx2 = mk("tx2", {3, 0}, 2);
    auto jam = mk("jam", {1.5, 1}, 3);
    auto r1 = mk("r1", {1, 0}, 4);
    auto r2 = mk("r2", {2, 0}, 5);
    auto r3 = mk("r3", {1, 1}, 6);
    auto r4 = mk("r4", {0, 2}, 7);
    // Three more channel-7 listeners make six: the channel's interest list
    // and every channel-7 frame's rx-power memo outgrow their four inline
    // slots and spill to the heap.
    auto r5 = mk("r5", {2, 1}, 8);
    auto r6 = mk("r6", {0, 1}, 9);
    auto r7 = mk("r7", {2.5, 2}, 10);
    for (int round = 0; round < 40; ++round) {
        if (move_midway && round == 20) {
            r2->set_position({2, -3});
            r6->set_position({-1, 2});
            medium.path_loss().add_wall(Wall{{-5, -1}, {5, -1}, 9.0});
        }
        r1->listen(7);
        r2->listen(7);
        r3->listen(7);
        r4->listen(9);
        r5->listen(7);
        r6->listen(7);
        r7->listen(7);
        tx1->transmit(7, test_frame(24, 0xAA));
        (void)scheduler.schedule_after(10'000, [&] { tx2->transmit(7, test_frame(24, 0xBB)); });
        (void)scheduler.schedule_after(30'000, [&] { jam->transmit(9, test_frame(12, 0xCC)); });
        scheduler.run_all();
    }
    DeliveryLog log;
    for (const ProbeDevice* d :
         {r1.get(), r2.get(), r3.get(), r4.get(), r5.get(), r6.get(), r7.get()}) {
        for (const HeardFrame& f : d->received) {
            log.emplace_back(d->name(), f.bytes, f.rssi_dbm, f.corrupted_by_medium);
        }
    }
    return log;
}

/// FNV-1a over a delivery log: receiver, payload, RSSI bits, corruption flag.
std::uint64_t fingerprint(const DeliveryLog& log) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
    };
    for (const auto& [name, bytes, rssi, corrupted] : log) {
        mix(name.data(), name.size());
        mix(bytes.data(), bytes.size());
        mix(&rssi, sizeof rssi);
        mix(&corrupted, sizeof corrupted);
    }
    return h;
}

TEST(MediumContended, DeliveriesMatchGolden) {
    // A contended multi-channel scenario — per-listener fading, overlapping
    // frames, spilled interest lists — delivers exactly what the medium
    // delivered when its per-channel walks were still checked against the
    // all-device walks (golden recorded on that tree, where both agreed).
    const DeliveryLog log = run_contended_scenario();
    EXPECT_EQ(log.size(), 259u);
    EXPECT_EQ(fingerprint(log), 0x22febd406e48e007ull);
}

TEST(MediumContended, GeometryChangeMidRunMatchesGolden) {
    // set_position and add_wall after the first transmissions: the log
    // equals the golden recorded on the tree before the frame path was
    // pooled.
    const DeliveryLog log = run_contended_scenario(true);
    EXPECT_EQ(log.size(), 256u);
    EXPECT_EQ(fingerprint(log), 0x91aedc5928459242ull);
}

// Capture verdicts of a receiver at the edge of range, where the noise
// floor alone corrupts a byte with probability of order 1e-2, with a weak
// interferer overlapping part of every fourth frame so that one delivery
// mixes noise-only and overlapped bytes.
struct NoiseFloorRun {
    int frames = 0;             ///< RxDecisions seen (frames the receiver locked)
    int corrupted_bytes = 0;    ///< summed over every decision
    std::string verdicts;       ///< one letter per decision: D, C (corrupted), L (lost sync)
};

/// The first 120 rounds, then (`moved` non-null) 60 more after the receiver
/// steps closer behind a new wall: a geometry change after the first
/// transmissions, recorded separately so the original golden is untouched.
NoiseFloorRun run_noise_floor_scenario(NoiseFloorRun* moved = nullptr) {
    Scheduler scheduler;
    PathLossParams pl;
    pl.fading_sigma_db = 3.0;
    RadioMedium medium(scheduler, Rng(2024), PathLossModel(pl), CaptureModel{}, MediumParams{});
    NoiseFloorRun run;
    NoiseFloorRun* current = &run;
    const auto token = medium.bus().subscribe([&current](const obs::Event& event) {
        const auto* d = std::get_if<obs::RxDecision>(&event);
        if (d == nullptr) return;
        ++current->frames;
        current->corrupted_bytes += d->corrupted_bytes;
        current->verdicts += d->verdict == obs::RxVerdict::kLostSync             ? 'L'
                             : d->verdict == obs::RxVerdict::kDeliveredCorrupted ? 'C'
                                                                                  : 'D';
    });
    auto mk = [&](const std::string& name, Position pos, std::uint64_t seed) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(seed), cfg);
    };
    auto tx = mk("tx", {0, 0}, 1);
    auto rx = mk("rx", {200, 0}, 2);   // ~-90.6 dBm mean: 6 dB above the -94 dBm edge
    auto jam = mk("jam", {0, 150}, 3);  // ~-92.8 dBm at rx
    for (int round = 0; round < 120; ++round) {
        rx->listen(5);
        tx->transmit(5, test_frame(32, static_cast<std::uint8_t>(round)));
        if (round % 4 == 0) {
            (void)scheduler.schedule_after(150'000, [&] { jam->transmit(5, test_frame(8, 0xC3)); });
        }
        scheduler.run_all();
    }
    if (moved != nullptr) {
        current = moved;
        rx->set_position({150, 20});  // nearer, but behind a 4 dB wall
        medium.path_loss().add_wall(Wall{{100, -50}, {100, 50}, 4.0});
        for (int round = 0; round < 60; ++round) {
            rx->listen(5);
            tx->transmit(5, test_frame(32, static_cast<std::uint8_t>(round)));
            if (round % 3 == 0) {
                (void)scheduler.schedule_after(150'000,
                                               [&] { jam->transmit(5, test_frame(8, 0xC3)); });
            }
            scheduler.run_all();
        }
    }
    medium.bus().unsubscribe(token);
    return run;
}

TEST(MediumNoiseFloor, EdgeOfRangeVerdictsMatchGolden) {
    // Golden recorded before the per-delivery noise-only probability memo:
    // the memo must reproduce every per-byte draw and verdict bit for bit.
    const NoiseFloorRun run = run_noise_floor_scenario();
    EXPECT_EQ(run.frames, 107);
    EXPECT_EQ(run.corrupted_bytes, 51);
    EXPECT_EQ(run.verdicts,
              "DDDDCCCDDDDDDDDCDDDDCDCCCDDCCDCDCDDDCDCDDDCDCDDDDDCDDDDDDDDDDDCDCDCCCDDCCDCDCDDC"
              "DCDDDDDDDCDCCDDDCDDDCDCCDDD");
}

TEST(MediumNoiseFloor, VerdictsAfterGeometryChangeMatchGolden) {
    // The same run continued past a set_position and an add_wall: the first
    // phase still matches its golden, and the second phase matches the one
    // recorded on the tree before the frame path was pooled.
    NoiseFloorRun moved;
    const NoiseFloorRun run = run_noise_floor_scenario(&moved);
    EXPECT_EQ(run.frames, 107);
    EXPECT_EQ(run.corrupted_bytes, 51);
    EXPECT_EQ(moved.frames, 54);
    EXPECT_EQ(moved.corrupted_bytes, 37);
    EXPECT_EQ(moved.verdicts, "CDDCDCCCCCDDCDDDCCCCCCDCDDDDDDCCDDCDCDCCCDDDDCDDCCCCDC");
}

/// RxDecisions of one receiver, bit-exact (RSSI compared as a double).
using DecisionLog = std::vector<std::tuple<obs::RxVerdict, double, int, int>>;

/// Phase 1 at the construction geometry (`start`, `wall_from_start`), then
/// the receiver moves to `end` and — if not there already — the wall goes
/// up; phase 2 runs at that final geometry.  Returns each phase's decisions.
std::pair<DecisionLog, DecisionLog> run_geometry_change(Position start, bool wall_from_start,
                                                        Position end) {
    Scheduler scheduler;
    PathLossParams pl;
    pl.fading_sigma_db = 3.0;
    PathLossModel path_loss(pl);
    const Wall wall{{50, -100}, {50, 100}, 5.0};
    if (wall_from_start) path_loss.add_wall(wall);
    RadioMedium medium(scheduler, Rng(77), std::move(path_loss), CaptureModel{}, MediumParams{});
    std::pair<DecisionLog, DecisionLog> logs;
    DecisionLog* current = &logs.first;
    const auto token = medium.bus().subscribe([&current](const obs::Event& event) {
        if (const auto* d = std::get_if<obs::RxDecision>(&event)) {
            current->emplace_back(d->verdict, d->rssi_dbm, d->corrupted_bytes,
                                  d->sync_bit_errors);
        }
    });
    RadioDeviceConfig tx_cfg;
    tx_cfg.name = "tx";
    RadioDeviceConfig rx_cfg;
    rx_cfg.name = "rx";
    rx_cfg.position = start;
    ProbeDevice tx(scheduler, medium, Rng(1), tx_cfg);
    ProbeDevice rx(scheduler, medium, Rng(2), rx_cfg);
    auto rounds = [&](int n) {
        for (int round = 0; round < n; ++round) {
            rx.listen(11);
            tx.transmit(11, test_frame(32, static_cast<std::uint8_t>(round)));
            scheduler.run_all();
        }
    };
    rounds(10);
    current = &logs.second;
    rx.set_position(end);
    if (!wall_from_start) medium.path_loss().add_wall(wall);
    rounds(80);
    medium.bus().unsubscribe(token);
    return logs;
}

TEST(MediumGeometryChange, VerdictsMatchMediumBuiltWithNewWall) {
    // Medium A learns its wall after the first transmissions; medium B was
    // built with it and started the receiver somewhere else.  Phase 1 is
    // loud in both (every frame clean, so both make the same RNG draws),
    // hence phase 2 — receiver at the edge of range behind the wall — must
    // give bit-identical verdicts and RSSIs: nothing the medium derived from
    // the old geometry (a memoized path loss, say) may survive the change.
    const auto a = run_geometry_change({1, 0}, false, {180, 0});
    const auto b = run_geometry_change({3, 2}, true, {180, 0});
    ASSERT_EQ(a.first.size(), 10u);
    ASSERT_EQ(b.first.size(), 10u);
    for (const auto& phase1 : {a.first, b.first}) {
        for (const auto& [verdict, rssi, corrupted, sync_errors] : phase1) {
            ASSERT_EQ(verdict, obs::RxVerdict::kDelivered);
        }
    }
    EXPECT_NE(a.first, b.first);  // different start geometry, different RSSI
    EXPECT_EQ(a.second, b.second);
    // The edge of range is where a stale loss would show: clean and
    // corrupted deliveries, and frames that fall below sensitivity.
    std::set<obs::RxVerdict> seen;
    for (const auto& decision : a.second) seen.insert(std::get<0>(decision));
    EXPECT_TRUE(seen.contains(obs::RxVerdict::kDelivered));
    EXPECT_TRUE(seen.contains(obs::RxVerdict::kDeliveredCorrupted));
    EXPECT_LT(a.second.size(), 80u);
}

/// Verdicts of one receiver whose frame two interferers of different
/// power overlap in three runs — the first alone, both, the second alone —
/// so one delivery sees three interference levels.
struct OverlapRun {
    int frames = 0;
    int corrupted_bytes = 0;
    std::string verdicts;  ///< D, C (corrupted), L (lost sync)
};

OverlapRun run_two_interferer_scenario() {
    Scheduler scheduler;
    PathLossParams pl;
    pl.fading_sigma_db = 3.0;
    RadioMedium medium(scheduler, Rng(31), PathLossModel(pl), CaptureModel{}, MediumParams{});
    OverlapRun run;
    const auto token = medium.bus().subscribe([&run](const obs::Event& event) {
        const auto* d = std::get_if<obs::RxDecision>(&event);
        if (d == nullptr) return;
        ++run.frames;
        run.corrupted_bytes += d->corrupted_bytes;
        run.verdicts += d->verdict == obs::RxVerdict::kLostSync             ? 'L'
                        : d->verdict == obs::RxVerdict::kDeliveredCorrupted ? 'C'
                                                                             : 'D';
    });
    auto mk = [&](const std::string& name, Position pos, std::uint64_t seed) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(seed), cfg);
    };
    auto tx = mk("tx", {2, 0}, 1);
    auto rx = mk("rx", {0, 0}, 2);
    auto jam_a = mk("jam_a", {0, 0.7}, 3);   // ≈10 dB above the signal at rx
    auto jam_b = mk("jam_b", {-1.2, 0}, 4);  // ≈5 dB above
    for (int round = 0; round < 150; ++round) {
        rx->listen(3);
        tx->transmit(3, test_frame(40, static_cast<std::uint8_t>(round)));
        (void)scheduler.schedule_after(100'000, [&] { jam_a->transmit(3, test_frame(12)); });
        (void)scheduler.schedule_after(160'000, [&] { jam_b->transmit(3, test_frame(16)); });
        scheduler.run_all();
    }
    medium.bus().unsubscribe(token);
    return run;
}

TEST(MediumOverlapRuns, VerdictsMatchGolden) {
    // Golden recorded on the tree that computed the interference dBm for
    // every overlapped byte: computing it once per run of equal power must
    // reproduce every draw.
    const OverlapRun run = run_two_interferer_scenario();
    EXPECT_EQ(run.frames, 150);
    EXPECT_EQ(run.corrupted_bytes, 1425);
    EXPECT_EQ(run.verdicts,
              "CCCCCCCCCCCCCCCDCCCCCCCCCCCCCCCCCCCDCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC"
              "CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCDCCCCCCCCCCCCCCCCCCCCCCCCCCC");
}

// --- in-flight ring, zero-copy deliveries, pair-loss cache (DESIGN.md §10) ---

/// A frame whose first four bytes look like a sync word.
AirFrame sync_frame(std::size_t n, std::uint8_t fill) {
    AirFrame f = test_frame(n, fill);
    const std::uint8_t sync[4] = {0xD6, 0xBE, 0x89, 0x8E};
    std::copy(std::begin(sync), std::end(sync), f.bytes.begin());
    return f;
}

/// Whether a 20 ms frame reaches its receiver corrupted when a short,
/// strong frame overlapped it at 1 ms.  With `retire_pass_in_between`, an
/// unrelated frame finishes at 12 ms, past the short frame's retention: the
/// short record stays held behind the long one (the ring's front) but is
/// dead, so the long frame's delivery no longer counts it — as when records
/// were reclaimed wherever they sat.
bool long_frame_corrupted(bool retire_pass_in_between) {
    Scheduler scheduler;
    RadioMedium medium(scheduler, Rng(99), PathLossModel(MediumFixture::no_fading()),
                       CaptureModel{});
    auto mk = [&](const std::string& name, Position pos) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(7), cfg);
    };
    auto tx = mk("tx", {0, 0});
    auto rx = mk("rx", {1, 0});
    auto jam = mk("jam", {1, 0.1});  // 22 dB louder than tx at rx
    auto other = mk("other", {50, 50});
    rx->listen(7);
    AirFrame long_frame = test_frame(200);
    long_frame.byte_time = 100_us;
    const std::uint64_t long_id = tx->transmit(7, std::move(long_frame));
    std::uint64_t jam_id = 0;
    (void)scheduler.schedule_at(1_ms, [&] { jam_id = jam->transmit(7, test_frame(16)); });
    if (retire_pass_in_between) {
        (void)scheduler.schedule_at(12_ms, [&] { other->transmit(9, test_frame(4)); });
        (void)scheduler.schedule_at(13_ms, [&] {
            EXPECT_TRUE(MediumTestPeer::holds(medium, long_id));
            EXPECT_TRUE(MediumTestPeer::holds(medium, jam_id));  // held, but dead
            EXPECT_EQ(medium.active_transmissions(), 3u);
        });
    }
    scheduler.run_all();
    EXPECT_EQ(jam->tx_done, 1);
    EXPECT_EQ(tx->tx_done, 1);
    EXPECT_EQ(rx->received.size(), 1u);
    // A finish 10 ms past the long frame retires everything before it.
    (void)scheduler.schedule_at(40_ms, [&] { other->transmit(9, test_frame(4)); });
    scheduler.run_all();
    EXPECT_EQ(medium.active_transmissions(), 1u);
    return !rx->received.empty() && rx->received[0].corrupted_by_medium;
}

TEST(MediumRing, ShortFrameRetiredBehindLongOneStopsInterfering) {
    EXPECT_FALSE(long_frame_corrupted(true));
    EXPECT_TRUE(long_frame_corrupted(false));  // the overlap itself is deadly
}

TEST_F(MediumFixture, RingGrowsPastSixteenConcurrentFrames) {
    // Twenty frames in flight at once (one per channel, each with its own
    // listener) overflow the initial 16-slot ring; every finish must still
    // find its record.  A round's records retire during the next round's
    // finishes, so two rounds are held at a time: the ring doubles once
    // more, and the third round reuses the first round's records.
    constexpr int kFrames = 20;
    std::vector<std::unique_ptr<ProbeDevice>> senders;
    std::vector<std::unique_ptr<ProbeDevice>> listeners;
    for (int i = 0; i < kFrames; ++i) {
        senders.push_back(make("s" + std::to_string(i), {10.0 * i, 0}));
        listeners.push_back(make("l" + std::to_string(i), {10.0 * i, 1}));
    }
    for (int round = 0; round < 3; ++round) {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < kFrames; ++i) listeners[i]->listen(static_cast<Channel>(i));
        for (int i = 0; i < kFrames; ++i) {
            ids.push_back(senders[i]->transmit(static_cast<Channel>(i),
                                               test_frame(16, static_cast<std::uint8_t>(i))));
        }
        const std::size_t held = round == 0 ? 20 : 40;
        EXPECT_EQ(medium.active_transmissions(), held);
        EXPECT_EQ(MediumTestPeer::ring_size(medium), round == 0 ? 32u : 64u);
        scheduler.run_for(20_ms);
        for (int i = 0; i < kFrames; ++i) {
            EXPECT_EQ(senders[i]->tx_done, round + 1);
            ASSERT_EQ(listeners[i]->received.size(), static_cast<std::size_t>(round + 1));
            const HeardFrame& heard = listeners[i]->received.back();
            EXPECT_EQ(heard.transmission_id, ids[i]);
            EXPECT_EQ(heard.bytes, Bytes(16, static_cast<std::uint8_t>(i)));
        }
    }
}

TEST_F(MediumFixture, SenderDetachedMidFrameWhileOthersAreHeld) {
    auto a = make("a", {0, 0});
    auto b = make("b", {0.5, 0});
    auto c = make("c", {5, 5});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    a->transmit(7, test_frame(30, 0xAA));
    (void)scheduler.schedule_at(20_us, [&] { b->transmit(7, test_frame(30, 0xBB)); });
    (void)scheduler.schedule_at(40_us, [&] { c->transmit(3, test_frame(30, 0xCC)); });
    (void)scheduler.schedule_at(100_us, [&] { b.reset(); });  // mid-frame
    scheduler.run_all();
    EXPECT_EQ(a->tx_done, 1);
    EXPECT_EQ(c->tx_done, 1);
    // The gone sender's frame carries no power, so it no longer interferes.
    ASSERT_EQ(rx->received.size(), 1u);
    EXPECT_EQ(rx->received[0].bytes, Bytes(30, 0xAA));
    // A new device may reuse b's record once it retires.
    auto d = make("d", {0.5, 0});
    (void)scheduler.schedule_at(20_ms, [&] { d->transmit(7, test_frame(4)); });
    (void)scheduler.schedule_at(40_ms, [&] { d->transmit(7, test_frame(4)); });
    scheduler.run_all();
    EXPECT_EQ(d->tx_done, 2);
    EXPECT_EQ(medium.active_transmissions(), 1u);
}

TEST_F(MediumFixture, FinishingARetiredIdIsANoOp) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {1, 0});
    rx->listen(7);
    const std::uint64_t first = tx->transmit(7, test_frame());
    (void)scheduler.schedule_at(15_ms, [&] {
        rx->listen(7);
        tx->transmit(7, test_frame());
    });
    scheduler.run_all();
    ASSERT_FALSE(MediumTestPeer::holds(medium, first));  // retired at the second finish
    ASSERT_EQ(rx->received.size(), 2u);
    rx->listen(7);
    MediumTestPeer::finish(medium, first);
    MediumTestPeer::finish(medium, first + 100);  // never issued
    EXPECT_EQ(rx->received.size(), 2u);
    EXPECT_EQ(tx->tx_done, 2);
    EXPECT_FALSE(tx->transmitting());
}

/// Retunes, transmits and makes twenty other radios transmit from inside
/// on_rx, then checks that the delivered view still reads what was sent.
class BusyReceiver : public RadioDevice {
public:
    using RadioDevice::RadioDevice;
    void on_rx(const RxFrame& frame) override {
        const Bytes before(frame.bytes.begin(), frame.bytes.end());
        listen(9);
        transmit(11, sync_frame(20, 0x77));
        for (RadioDevice* helper : helpers) helper->transmit(13, sync_frame(40, 0x99));
        views_intact = views_intact && Bytes(frame.bytes.begin(), frame.bytes.end()) == before;
        received.push_back(before);
    }
    std::vector<RadioDevice*> helpers;
    std::vector<Bytes> received;
    bool views_intact = true;
};

TEST_F(MediumFixture, ViewSurvivesTransmitAndRetuneInsideOnRx) {
    auto tx = make("tx", {0, 0});
    RadioDeviceConfig cfg;
    cfg.name = "busy";
    cfg.position = {1, 0};
    BusyReceiver busy(scheduler, medium, Rng(7), cfg);
    std::vector<std::unique_ptr<ProbeDevice>> helpers;
    for (int i = 0; i < 20; ++i) {
        helpers.push_back(make("h" + std::to_string(i), {100.0 + i, 100}));
        busy.helpers.push_back(helpers.back().get());
    }
    for (int round = 0; round < 4; ++round) {
        busy.listen(7);
        tx->transmit(7, sync_frame(24, static_cast<std::uint8_t>(round)));
        scheduler.run_for(20_ms);  // earlier rounds' records retire: later ones reuse them
    }
    ASSERT_EQ(busy.received.size(), 4u);
    EXPECT_TRUE(busy.views_intact);
    for (int round = 0; round < 4; ++round) {
        EXPECT_EQ(busy.received[round], sync_frame(24, static_cast<std::uint8_t>(round)).bytes);
    }
}

TEST(MediumCorruptedDelivery, CarriesTheMatchedSyncWord) {
    // A receiver tolerating any number of sync bit errors, drowned by an
    // interferer over the whole frame: every delivery is corrupted, the
    // sync region included, yet delivers the matched sync word.
    Scheduler scheduler;
    PathLossParams pl;
    pl.fading_sigma_db = 0.0;
    MediumParams params;
    params.max_sync_bit_errors = 1000;
    RadioMedium medium(scheduler, Rng(5), PathLossModel(pl), CaptureModel{}, params);
    int sync_hits = 0;
    const auto token = medium.bus().subscribe([&](const obs::Event& event) {
        if (const auto* d = std::get_if<obs::RxDecision>(&event)) {
            sync_hits += d->sync_bit_errors > 0 ? 1 : 0;
        }
    });
    auto mk = [&](const std::string& name, Position pos) {
        RadioDeviceConfig cfg;
        cfg.name = name;
        cfg.position = pos;
        return std::make_unique<ProbeDevice>(scheduler, medium, Rng(3), cfg);
    };
    auto tx = mk("tx", {0, 0});
    auto rx = mk("rx", {1, 0});
    auto jam = mk("jam", {1, 0.1});
    const AirFrame sent = sync_frame(24, 0x3C);
    for (int round = 0; round < 10; ++round) {
        rx->listen(7);
        tx->transmit(7, sent);
        (void)scheduler.schedule_after(1_us, [&] { jam->transmit(7, test_frame(40, 0xE1)); });
        scheduler.run_all();
    }
    medium.bus().unsubscribe(token);
    ASSERT_EQ(rx->received.size(), 10u);
    EXPECT_EQ(sync_hits, 10);
    for (const HeardFrame& frame : rx->received) {
        EXPECT_TRUE(frame.corrupted_by_medium);
        ASSERT_EQ(frame.bytes.size(), sent.bytes.size());
        EXPECT_TRUE(
            std::equal(sent.bytes.begin(), sent.bytes.begin() + 4, frame.bytes.begin()));
        EXPECT_NE(frame.bytes, sent.bytes);
    }
}

TEST_F(MediumFixture, PairsSharingACacheSlotKeepTheirOwnLoss) {
    // 34 radios: the cache is 32×32, so attach orders 1 and 33 share a row
    // and the pairs (1 → 2) and (33 → 2) one slot.  Alternating them must
    // recompute the mean loss each time, never reuse the other pair's.
    std::vector<std::unique_ptr<ProbeDevice>> radios;
    for (int i = 0; i < 34; ++i) {
        radios.push_back(make("r" + std::to_string(i), {3.0 * i, 0.5 * i}));
    }
    ProbeDevice& near = *radios[0];
    ProbeDevice& rx = *radios[1];
    ProbeDevice& far = *radios[32];
    ASSERT_EQ(MediumTestPeer::pair_slot(medium, near, rx),
              MediumTestPeer::pair_slot(medium, far, rx));
    for (int round = 0; round < 6; ++round) {
        ProbeDevice& tx = round % 2 == 0 ? near : far;
        rx.listen(7);
        tx.transmit(7, test_frame());
        scheduler.run_all();
        ASSERT_EQ(rx.received.size(), static_cast<std::size_t>(round + 1));
        // No fading: the RSSI is exactly minus the mean path loss.
        EXPECT_EQ(rx.received.back().rssi_dbm,
                  -medium.path_loss().mean_loss_db(tx.position(), rx.position()));
    }
}

TEST_F(MediumFixture, PairLossFollowsSetPositionAndAddWall) {
    auto tx = make("tx", {0, 0});
    auto rx = make("rx", {2, 0});
    auto hear = [&] {
        rx->listen(7);
        tx->transmit(7, test_frame());
        scheduler.run_all();
        EXPECT_EQ(rx->received.back().rssi_dbm,
                  -medium.path_loss().mean_loss_db(tx->position(), rx->position()));
        return rx->received.back().rssi_dbm;
    };
    const double at_two = hear();
    EXPECT_EQ(hear(), at_two);  // cached
    rx->set_position({2, 0.5});  // one coordinate at a time
    EXPECT_LT(hear(), at_two);
    tx->set_position({0, 0.5});
    EXPECT_EQ(hear(), at_two);
    tx->set_position({0, 0});
    rx->set_position({4, 0});
    const double at_four = hear();
    EXPECT_LT(at_four, at_two);
    medium.path_loss().add_wall(Wall{{3, -1}, {3, 1}, 7.0});
    EXPECT_DOUBLE_EQ(hear(), at_four - 7.0);
    tx->set_position({3.5, 0});  // both ends now on the same side of the wall
    EXPECT_GT(hear(), at_two);
    rx->set_position({2, 0});
    tx->set_position({0, 0});
    EXPECT_DOUBLE_EQ(hear(), at_two);
}

}  // namespace


}  // namespace ble::sim
