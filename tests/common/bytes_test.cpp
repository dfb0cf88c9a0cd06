#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.hpp"

namespace ble {
namespace {

TEST(ByteWriterTest, LittleEndianLayout) {
    ByteWriter w;
    w.write_u8(0x01);
    w.write_u16(0x2345);
    w.write_u24(0x6789AB);
    w.write_u32(0xCDEF0123);
    EXPECT_EQ(w.bytes(), (Bytes{0x01, 0x45, 0x23, 0xAB, 0x89, 0x67, 0x23, 0x01, 0xEF, 0xCD}));
}

TEST(ByteWriterTest, U64RoundTrip) {
    ByteWriter w;
    w.write_u64(0x1122334455667788ULL);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.read_u64(), 0x1122334455667788ULL);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReaderTest, ReadsSequentially) {
    const Bytes data{0x01, 0x45, 0x23, 0xAB, 0x89, 0x67};
    ByteReader r(data);
    EXPECT_EQ(r.read_u8(), 0x01);
    EXPECT_EQ(r.read_u16(), 0x2345);
    EXPECT_EQ(r.read_u24(), 0x6789AB);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReaderTest, OverrunSetsFailedAndReturnsNullopt) {
    const Bytes data{0x01};
    ByteReader r(data);
    EXPECT_EQ(r.read_u16(), std::nullopt);
    EXPECT_FALSE(r.ok());
    // Position unchanged after a failed read.
    EXPECT_EQ(r.remaining(), 1u);
}

TEST(ByteReaderTest, ReadBytesAndRest) {
    const Bytes data{1, 2, 3, 4, 5};
    ByteReader r(data);
    const auto head = r.read_bytes(2);
    ASSERT_TRUE(head.has_value());
    EXPECT_TRUE(std::ranges::equal(*head, Bytes{1, 2}));
    const BytesView rest = r.read_rest();
    EXPECT_TRUE(std::ranges::equal(rest, Bytes{3, 4, 5}));
    // Views borrow the reader's buffer: nothing is copied.
    EXPECT_EQ(head->data(), data.data());
    EXPECT_EQ(rest.data(), data.data() + 2);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReaderTest, SkipRespectsBounds) {
    const Bytes data{1, 2, 3};
    ByteReader r(data);
    EXPECT_TRUE(r.skip(2));
    EXPECT_FALSE(r.skip(5));
    EXPECT_FALSE(r.ok());
}

TEST(ByteReaderTest, EmptyBufferRestIsEmpty) {
    const Bytes data;
    ByteReader r(data);
    EXPECT_TRUE(r.read_rest().empty());
    EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace ble
