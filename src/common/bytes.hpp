// Byte-buffer primitives shared by every layer of the stack.
//
// BLE is a little-endian protocol: all multi-byte fields in PDUs are
// transmitted least-significant-octet first.  ByteReader/ByteWriter therefore
// only expose little-endian accessors.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace ble {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Sequential little-endian decoder over a borrowed buffer.
///
/// All `read_*` accessors return std::nullopt once the buffer is exhausted
/// instead of throwing; parsing code checks the result (or `ok()` at the end)
/// so malformed over-the-air frames can never crash the stack.
class ByteReader {
public:
    explicit ByteReader(BytesView data) noexcept : data_(data) {}

    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }
    /// True while no read has run past the end of the buffer.
    [[nodiscard]] bool ok() const noexcept { return !failed_; }

    std::optional<std::uint8_t> read_u8() noexcept;
    std::optional<std::uint16_t> read_u16() noexcept;
    /// 24-bit little-endian value (e.g. CRCInit in CONNECT_REQ).
    std::optional<std::uint32_t> read_u24() noexcept;
    std::optional<std::uint32_t> read_u32() noexcept;
    std::optional<std::uint64_t> read_u64() noexcept;
    /// The next `n` bytes, as a view into the borrowed buffer; nullopt if
    /// fewer remain.  Copy them to keep them past the buffer's lifetime.
    std::optional<BytesView> read_bytes(std::size_t n) noexcept;
    /// Everything left in the buffer (possibly empty), as a view.
    BytesView read_rest() noexcept;
    bool skip(std::size_t n) noexcept;

private:
    BytesView data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/// Sequential little-endian encoder producing an owned buffer.
class ByteWriter {
public:
    ByteWriter() = default;
    explicit ByteWriter(std::size_t reserve) { out_.reserve(reserve); }

    void write_u8(std::uint8_t v);
    void write_u16(std::uint16_t v);
    void write_u24(std::uint32_t v);
    void write_u32(std::uint32_t v);
    void write_u64(std::uint64_t v);
    void write_bytes(BytesView data);

    [[nodiscard]] const Bytes& bytes() const noexcept { return out_; }
    [[nodiscard]] Bytes take() noexcept { return std::move(out_); }
    [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

private:
    Bytes out_;
};

}  // namespace ble
