#include <gtest/gtest.h>

#include <vector>

#include "host/l2cap.hpp"

namespace ble::host {
namespace {

struct L2capHarness {
    explicit L2capHarness(std::size_t mtu = 27)
        : channel(
              mtu,
              [this](link::Llid llid, Bytes payload) {
                  fragments.push_back({llid, std::move(payload)});
              },
              [this](std::uint16_t cid, BytesView sdu) {
                  delivered.push_back({cid, Bytes(sdu.begin(), sdu.end())});
              }) {}

    /// Loops TX fragments back into the receive path.
    void loopback() {
        for (auto& [llid, payload] : fragments) {
            link::DataPdu pdu;
            pdu.llid = llid;
            pdu.payload = payload;
            channel.handle_ll_pdu(pdu);
        }
        fragments.clear();
    }

    std::vector<std::pair<link::Llid, Bytes>> fragments;
    std::vector<std::pair<std::uint16_t, Bytes>> delivered;
    L2capChannel channel;
};

TEST(L2capTest, SmallSduSingleFragment) {
    L2capHarness h;
    h.channel.send(kAttCid, Bytes{1, 2, 3});
    ASSERT_EQ(h.fragments.size(), 1u);
    EXPECT_EQ(h.fragments[0].first, link::Llid::kDataStart);
    // Header: len=3, cid=4.
    EXPECT_EQ(h.fragments[0].second, (Bytes{0x03, 0x00, 0x04, 0x00, 1, 2, 3}));
}

TEST(L2capTest, LargeSduFragments) {
    L2capHarness h(27);
    Bytes sdu(60, 0xAB);
    h.channel.send(kAttCid, sdu);
    // 64 framed bytes over 27-byte fragments -> 27 + 27 + 10.
    ASSERT_EQ(h.fragments.size(), 3u);
    EXPECT_EQ(h.fragments[0].first, link::Llid::kDataStart);
    EXPECT_EQ(h.fragments[1].first, link::Llid::kDataContinuation);
    EXPECT_EQ(h.fragments[2].first, link::Llid::kDataContinuation);
    EXPECT_EQ(h.fragments[0].second.size(), 27u);
    EXPECT_EQ(h.fragments[2].second.size(), 10u);
}

TEST(L2capTest, RoundTripSmall) {
    L2capHarness h;
    h.channel.send(0x0004, Bytes{9, 8, 7});
    h.loopback();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].first, 0x0004);
    EXPECT_EQ(h.delivered[0].second, (Bytes{9, 8, 7}));
}

TEST(L2capTest, RoundTripLarge) {
    L2capHarness h;
    Bytes sdu(200);
    for (std::size_t i = 0; i < sdu.size(); ++i) sdu[i] = static_cast<std::uint8_t>(i);
    h.channel.send(kAttCid, sdu);
    h.loopback();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].second, sdu);
}

TEST(L2capTest, EmptySdu) {
    L2capHarness h;
    h.channel.send(kAttCid, Bytes{});
    h.loopback();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_TRUE(h.delivered[0].second.empty());
}

TEST(L2capTest, ContinuationWithoutStartDropped) {
    L2capHarness h;
    link::DataPdu pdu;
    pdu.llid = link::Llid::kDataContinuation;
    pdu.payload = {1, 2, 3};
    h.channel.handle_ll_pdu(pdu);
    EXPECT_TRUE(h.delivered.empty());
    EXPECT_EQ(h.channel.pending_rx_bytes(), 0u);
}

TEST(L2capTest, NewStartReplacesStaleReassembly) {
    L2capHarness h;
    // A truncated frame claiming 100 bytes...
    link::DataPdu stale;
    stale.llid = link::Llid::kDataStart;
    stale.payload = {100, 0, 0x04, 0, 1, 2, 3};
    h.channel.handle_ll_pdu(stale);
    EXPECT_TRUE(h.delivered.empty());
    // ... then a fresh complete frame: delivered, stale state discarded.
    h.channel.send(kAttCid, Bytes{42});
    h.loopback();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].second, Bytes{42});
}

TEST(L2capTest, PreservesCidOtherThanAtt) {
    L2capHarness h;
    h.channel.send(0x0006, Bytes{5});
    h.loopback();
    ASSERT_EQ(h.delivered.size(), 1u);
    EXPECT_EQ(h.delivered[0].first, 0x0006);
}

}  // namespace
}  // namespace ble::host
