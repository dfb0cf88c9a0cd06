#include "common/bytes.hpp"

namespace ble {

std::optional<std::uint8_t> ByteReader::read_u8() noexcept {
    if (remaining() < 1) {
        failed_ = true;
        return std::nullopt;
    }
    return data_[pos_++];
}

std::optional<std::uint16_t> ByteReader::read_u16() noexcept {
    if (remaining() < 2) {
        failed_ = true;
        return std::nullopt;
    }
    const auto lo = data_[pos_];
    const auto hi = data_[pos_ + 1];
    pos_ += 2;
    return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::optional<std::uint32_t> ByteReader::read_u24() noexcept {
    if (remaining() < 3) {
        failed_ = true;
        return std::nullopt;
    }
    std::uint32_t v = data_[pos_] | (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                      (static_cast<std::uint32_t>(data_[pos_ + 2]) << 16);
    pos_ += 3;
    return v;
}

std::optional<std::uint32_t> ByteReader::read_u32() noexcept {
    if (remaining() < 4) {
        failed_ = true;
        return std::nullopt;
    }
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
}

std::optional<std::uint64_t> ByteReader::read_u64() noexcept {
    if (remaining() < 8) {
        failed_ = true;
        return std::nullopt;
    }
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
}

std::optional<BytesView> ByteReader::read_bytes(std::size_t n) noexcept {
    if (remaining() < n) {
        failed_ = true;
        return std::nullopt;
    }
    const BytesView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
}

BytesView ByteReader::read_rest() noexcept {
    const BytesView out = data_.subspan(pos_);
    pos_ = data_.size();
    return out;
}

bool ByteReader::skip(std::size_t n) noexcept {
    if (remaining() < n) {
        failed_ = true;
        return false;
    }
    pos_ += n;
    return true;
}

void ByteWriter::write_u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::write_u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::write_u24(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    out_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
}

void ByteWriter::write_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::write_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::write_bytes(BytesView data) { out_.insert(out_.end(), data.begin(), data.end()); }

}  // namespace ble
