#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "link/pdu.hpp"
#include "phy/frame.hpp"

namespace ble::link {
namespace {

TEST(DataPduTest, HeaderBitLayout) {
    DataPdu pdu;
    pdu.llid = Llid::kDataStart;
    pdu.nesn = true;
    pdu.sn = false;
    pdu.md = true;
    pdu.payload = {0xAB};
    const Bytes wire = pdu.serialize();
    ASSERT_EQ(wire.size(), 3u);
    // LLID=10, NESN bit2=1, SN bit3=0, MD bit4=1 -> 0b0001'0110 = 0x16.
    EXPECT_EQ(wire[0], 0x16);
    EXPECT_EQ(wire[1], 0x01);  // length
    EXPECT_EQ(wire[2], 0xAB);
}

TEST(DataPduTest, RoundTripAllFlagCombinations) {
    for (int flags = 0; flags < 8; ++flags) {
        DataPdu pdu;
        pdu.llid = Llid::kControl;
        pdu.nesn = (flags & 1) != 0;
        pdu.sn = (flags & 2) != 0;
        pdu.md = (flags & 4) != 0;
        pdu.payload = {0x02, 0x13};
        const auto parsed = DataPdu::parse(pdu.serialize());
        ASSERT_TRUE(parsed.has_value()) << flags;
        EXPECT_EQ(parsed->nesn, pdu.nesn);
        EXPECT_EQ(parsed->sn, pdu.sn);
        EXPECT_EQ(parsed->md, pdu.md);
        EXPECT_EQ(parsed->llid, pdu.llid);
        EXPECT_EQ(parsed->payload, pdu.payload);
    }
}

TEST(DataPduTest, EmptyPdu) {
    const DataPdu pdu = DataPdu::empty(true, false);
    EXPECT_TRUE(pdu.is_empty());
    const Bytes wire = pdu.serialize();
    ASSERT_EQ(wire.size(), 2u);
    EXPECT_EQ(wire[1], 0x00);
    const auto parsed = DataPdu::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->is_empty());
    EXPECT_TRUE(parsed->nesn);
    EXPECT_FALSE(parsed->sn);
}

TEST(DataPduTest, RejectsLengthMismatch) {
    EXPECT_EQ(DataPdu::parse(Bytes{0x01, 0x05, 0xAA}), std::nullopt);
    EXPECT_EQ(DataPdu::parse(Bytes{0x01, 0x00, 0xAA}), std::nullopt);
    EXPECT_EQ(DataPdu::parse(Bytes{0x01}), std::nullopt);
}

TEST(DataPduTest, RejectsReservedLlid) {
    EXPECT_EQ(DataPdu::parse(Bytes{0x00, 0x00}), std::nullopt);
}

TEST(DataPduTest, ControlDetection) {
    DataPdu pdu;
    pdu.llid = Llid::kControl;
    pdu.payload = {0x02, 0x13};
    EXPECT_TRUE(pdu.is_control());
    EXPECT_FALSE(pdu.is_empty());
}

TEST(AdvPduTest, HeaderLayout) {
    AdvPdu pdu;
    pdu.type = AdvPduType::kConnectReq;
    pdu.tx_add = true;
    pdu.rx_add = false;
    pdu.payload = Bytes(34, 0x00);
    const Bytes wire = pdu.serialize();
    EXPECT_EQ(wire[0], 0x45);  // type 0101 + TxAdd bit6
    EXPECT_EQ(wire[1], 34);
}

TEST(AdvPduTest, RoundTrip) {
    AdvPdu pdu;
    pdu.type = AdvPduType::kScanRsp;
    pdu.rx_add = true;
    pdu.payload = {1, 2, 3, 4, 5, 6, 7};
    const auto parsed = AdvPdu::parse(pdu.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, AdvPduType::kScanRsp);
    EXPECT_TRUE(parsed->rx_add);
    EXPECT_FALSE(parsed->tx_add);
    EXPECT_EQ(parsed->payload, pdu.payload);
}

TEST(AdvPduTest, RejectsTruncation) {
    EXPECT_EQ(AdvPdu::parse(Bytes{0x00}), std::nullopt);
    EXPECT_EQ(AdvPdu::parse(Bytes{0x00, 0x05, 0x01}), std::nullopt);
}

TEST(FrameBuilderTest, SingleBufferWriterMatchesSerializeOracle) {
    // Differential property: the single-buffer frame writer every transmit
    // path uses equals the copying path it replaced,
    // make_air_frame(aa, DataPdu::serialize(), crc_init), for every LLID,
    // every SN/NESN/MD combination and payload lengths 0..251, with random
    // access addresses, CRCInits and payload bytes.  The buffer is recycled
    // across cases, as the medium's frame pool recycles it.
    Rng rng(0xF4A3E);
    Bytes buffer;
    for (std::uint8_t llid = 0; llid < 4; ++llid) {
        for (int bits = 0; bits < 8; ++bits) {
            for (std::size_t len = 0; len <= 251; ++len) {
                DataPdu pdu;
                pdu.llid = static_cast<Llid>(llid);
                pdu.nesn = (bits & 1) != 0;
                pdu.sn = (bits & 2) != 0;
                pdu.md = (bits & 4) != 0;
                pdu.payload.resize(len);
                for (auto& b : pdu.payload) b = static_cast<std::uint8_t>(rng.next_below(256));
                const auto aa = static_cast<std::uint32_t>(rng.next_u64());
                const auto crc_init = static_cast<std::uint32_t>(rng.next_below(1u << 24));

                const sim::AirFrame oracle = phy::make_air_frame(aa, pdu.serialize(), crc_init);
                const DataPduView view = pdu;
                sim::AirFrame built = phy::make_air_frame(std::move(buffer), aa, view.header(),
                                                          view.payload, crc_init);
                ASSERT_EQ(built.bytes, oracle.bytes)
                    << "llid " << int{llid} << " bits " << bits << " length " << len;
                EXPECT_EQ(built.duration(), oracle.duration());
                EXPECT_EQ(built.sync_bytes, oracle.sync_bytes);
                buffer = std::move(built.bytes);
            }
        }
    }
}

TEST(DataPduViewTest, ParseBorrowsPayloadAndMatchesOwningParse) {
    const Bytes wire{0x1E, 0x03, 0xAA, 0xBB, 0xCC};  // LLID 10, NESN, SN, MD
    const auto view = DataPduView::parse(wire);
    const auto owned = DataPdu::parse(wire);
    ASSERT_TRUE(view.has_value());
    ASSERT_TRUE(owned.has_value());
    EXPECT_EQ(view->payload.data(), wire.data() + 2);
    EXPECT_EQ(view->llid, owned->llid);
    EXPECT_EQ(view->nesn, owned->nesn);
    EXPECT_EQ(view->sn, owned->sn);
    EXPECT_EQ(view->md, owned->md);
    EXPECT_TRUE(std::ranges::equal(view->payload, owned->payload));
    EXPECT_EQ(view->to_owned().serialize(), wire);
    EXPECT_FALSE(DataPduView::parse(Bytes{0x00, 0x00}).has_value());  // reserved LLID
    EXPECT_FALSE(DataPduView::parse(Bytes{0x01, 0x02, 0xAA}).has_value());
}

TEST(AdvPduViewTest, ParseBorrowsPayloadAndMatchesOwningParse) {
    AdvPdu pdu;
    pdu.type = AdvPduType::kConnectReq;
    pdu.ch_sel = true;
    pdu.tx_add = true;
    pdu.payload = {1, 2, 3, 4};
    const Bytes wire = pdu.serialize();
    const auto view = AdvPduView::parse(wire);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->payload.data(), wire.data() + 2);
    EXPECT_EQ(view->type, pdu.type);
    EXPECT_EQ(view->ch_sel, pdu.ch_sel);
    EXPECT_EQ(view->tx_add, pdu.tx_add);
    EXPECT_EQ(view->rx_add, pdu.rx_add);
    EXPECT_TRUE(std::ranges::equal(view->payload, pdu.payload));
    EXPECT_EQ(wire[0], 0x65);  // type 0101 + ChSel bit5 + TxAdd bit6
}

}  // namespace
}  // namespace ble::link
