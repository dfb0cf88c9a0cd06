#include <gtest/gtest.h>

#include <set>

#include "link/channel_selection.hpp"

namespace ble::link {
namespace {

TEST(Csa1Test, PlainModularHopWithFullMap) {
    Csa1 csa(7, ChannelMap{});
    // Starts from unmapped channel 0: first event uses (0+7)%37 = 7.
    EXPECT_EQ(csa.channel_for_event(0), 7);
    EXPECT_EQ(csa.channel_for_event(1), 14);
    EXPECT_EQ(csa.channel_for_event(2), 21);
    EXPECT_EQ(csa.channel_for_event(3), 28);
    EXPECT_EQ(csa.channel_for_event(4), 35);
    EXPECT_EQ(csa.channel_for_event(5), (35 + 7) % 37);
}

TEST(Csa1Test, CyclesThroughAll37WithCoprimeHop) {
    Csa1 csa(11, ChannelMap{});
    std::set<std::uint8_t> seen;
    for (int i = 0; i < 37; ++i) seen.insert(csa.channel_for_event(0));
    EXPECT_EQ(seen.size(), 37u);
}

TEST(Csa1Test, RemapsUnusedChannels) {
    ChannelMap map;
    for (std::uint8_t ch = 10; ch < 37; ++ch) map.set_used(ch, false);  // only 0-9 used
    Csa1 csa(7, map);
    for (int i = 0; i < 100; ++i) {
        const std::uint8_t ch = csa.channel_for_event(0);
        EXPECT_LT(ch, 10) << "event " << i;
    }
}

TEST(Csa1Test, RemapIndexIsUnmappedModUsedCount) {
    ChannelMap map{0};
    map.set_used(3, true);
    map.set_used(20, true);  // two used channels
    Csa1 csa(7, map);
    // Event 1: unmapped = 7 (unused) -> remap 7 % 2 = 1 -> channel 20.
    EXPECT_EQ(csa.channel_for_event(0), 20);
    // Next: unmapped = 14 -> 14 % 2 = 0 -> channel 3.
    EXPECT_EQ(csa.channel_for_event(1), 3);
}

TEST(Csa1Test, TwoInstancesStayInLockstep) {
    // This is the attack's synchronisation property: anyone with the same
    // CONNECT_REQ parameters derives the same hop sequence.
    Csa1 a(13, ChannelMap{});
    Csa1 b(13, ChannelMap{});
    for (std::uint16_t e = 0; e < 500; ++e) {
        EXPECT_EQ(a.channel_for_event(e), b.channel_for_event(e));
    }
}

TEST(Csa1Test, MapUpdateAppliesFromNextEvent) {
    Csa1 csa(7, ChannelMap{});
    csa.channel_for_event(0);
    ChannelMap narrow{0};
    for (std::uint8_t ch = 0; ch < 5; ++ch) narrow.set_used(ch, true);
    csa.set_channel_map(narrow);
    for (int i = 0; i < 50; ++i) EXPECT_LT(csa.channel_for_event(0), 5);
}

TEST(Csa1Test, CloneCarriesState) {
    Csa1 csa(7, ChannelMap{});
    csa.channel_for_event(0);
    csa.channel_for_event(1);
    auto clone = csa.clone();
    for (std::uint16_t e = 2; e < 40; ++e) {
        EXPECT_EQ(clone->channel_for_event(e), csa.channel_for_event(e));
    }
}

TEST(Csa2Test, CoreSpecSampleDataAllChannelsUsed) {
    // Core Spec Vol 6 Part C, CSA #2 sample data 1: access address 0x8E89BED6
    // (channel identifier 0x305F), all 37 data channels used.
    Csa2 csa(0x8E89BED6, ChannelMap{});
    EXPECT_EQ(csa.channel_for_event(0), 25);
    EXPECT_EQ(csa.channel_for_event(1), 20);
    EXPECT_EQ(csa.channel_for_event(2), 6);
    EXPECT_EQ(csa.channel_for_event(3), 21);
}

TEST(Csa2Test, CoreSpecSampleDataNineChannelsUsed) {
    // Core Spec Vol 6 Part C, CSA #2 sample data 2: the same access address with
    // only channels 9, 10, 21, 22, 23, 33, 34, 35 and 36 used, so unmapped
    // channels are remapped through the used-channel table.
    ChannelMap map{0};
    for (std::uint8_t ch : {9, 10, 21, 22, 23, 33, 34, 35, 36}) map.set_used(ch, true);
    Csa2 csa(0x8E89BED6, map);
    EXPECT_EQ(csa.channel_for_event(6), 23);
    EXPECT_EQ(csa.channel_for_event(7), 9);
    EXPECT_EQ(csa.channel_for_event(8), 34);
}

TEST(Csa2Test, PureFunctionOfEventCounter) {
    Csa2 csa(0x8E89BED6 ^ 0x12345678, ChannelMap{});
    const std::uint8_t at100 = csa.channel_for_event(100);
    csa.channel_for_event(5000);
    EXPECT_EQ(csa.channel_for_event(100), at100);
}

TEST(Csa2Test, ProducesAllChannelsEventually) {
    Csa2 csa(0xAF9A9CD4, ChannelMap{});
    std::set<std::uint8_t> seen;
    for (std::uint16_t e = 0; e < 2000; ++e) seen.insert(csa.channel_for_event(e));
    EXPECT_EQ(seen.size(), 37u);
}

TEST(Csa2Test, RespectsChannelMap) {
    ChannelMap map{0};
    for (std::uint8_t ch : {1, 4, 9, 16, 25, 36}) map.set_used(ch, true);
    Csa2 csa(0xAF9A9CD4, map);
    for (std::uint16_t e = 0; e < 1000; ++e) {
        EXPECT_TRUE(map.is_used(csa.channel_for_event(e))) << "event " << e;
    }
}

TEST(Csa2Test, DifferentAccessAddressesGiveDifferentSequences) {
    Csa2 a(0xAF9A9CD4, ChannelMap{});
    Csa2 b(0x50654C96, ChannelMap{});
    int same = 0;
    for (std::uint16_t e = 0; e < 200; ++e) {
        same += a.channel_for_event(e) == b.channel_for_event(e) ? 1 : 0;
    }
    EXPECT_LT(same, 40);  // ~1/37 collision rate expected
}

TEST(Csa2Test, PrnEDeterministic) {
    Csa2 csa(0xAF9A9CD4, ChannelMap{});
    EXPECT_EQ(csa.prn_e(42), csa.prn_e(42));
    EXPECT_NE(csa.prn_e(42), csa.prn_e(43));
}

TEST(Csa2Test, SynchronisedInstancesAgree) {
    Csa2 a(0x71764129, ChannelMap{});
    Csa2 b(0x71764129, ChannelMap{});
    for (std::uint16_t e = 0; e < 500; ++e) {
        EXPECT_EQ(a.channel_for_event(e), b.channel_for_event(e));
    }
}

}  // namespace
}  // namespace ble::link
