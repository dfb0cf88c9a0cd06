#include "link/pdu.hpp"

namespace ble::link {

namespace {
constexpr std::uint8_t kLlidMask = 0b11;
constexpr std::uint8_t kNesnBit = 1u << 2;
constexpr std::uint8_t kSnBit = 1u << 3;
constexpr std::uint8_t kMdBit = 1u << 4;
}  // namespace

std::array<std::uint8_t, 2> DataPduView::header() const noexcept {
    std::uint8_t flags = static_cast<std::uint8_t>(llid) & kLlidMask;
    if (nesn) flags |= kNesnBit;
    if (sn) flags |= kSnBit;
    if (md) flags |= kMdBit;
    return {flags, static_cast<std::uint8_t>(payload.size())};
}

std::optional<DataPduView> DataPduView::parse(BytesView pdu) noexcept {
    if (pdu.size() < 2) return std::nullopt;
    const std::uint8_t flags = pdu[0];
    const std::uint8_t length = pdu[1];
    if (pdu.size() != static_cast<std::size_t>(length) + 2) return std::nullopt;
    DataPduView out;
    out.llid = static_cast<Llid>(flags & kLlidMask);
    if (out.llid == Llid::kReserved) return std::nullopt;
    out.nesn = (flags & kNesnBit) != 0;
    out.sn = (flags & kSnBit) != 0;
    out.md = (flags & kMdBit) != 0;
    out.payload = pdu.subspan(2);
    return out;
}

DataPdu DataPduView::to_owned() const {
    return DataPdu{llid, nesn, sn, md, Bytes(payload.begin(), payload.end())};
}

namespace {
Bytes serialize_pdu(std::array<std::uint8_t, 2> header, BytesView payload) {
    ByteWriter w(header.size() + payload.size());
    w.write_bytes(header);
    w.write_bytes(payload);
    return w.take();
}
}  // namespace

Bytes DataPdu::serialize() const {
    return serialize_pdu(DataPduView(*this).header(), payload);
}

std::optional<DataPdu> DataPdu::parse(BytesView pdu) {
    const auto view = DataPduView::parse(pdu);
    if (!view) return std::nullopt;
    return view->to_owned();
}

std::array<std::uint8_t, 2> AdvPduView::header() const noexcept {
    std::uint8_t flags = static_cast<std::uint8_t>(type) & 0x0F;
    if (ch_sel) flags |= 1u << 5;
    if (tx_add) flags |= 1u << 6;
    if (rx_add) flags |= 1u << 7;
    return {flags, static_cast<std::uint8_t>(payload.size() & 0x3F)};
}

std::optional<AdvPduView> AdvPduView::parse(BytesView pdu) noexcept {
    if (pdu.size() < 2) return std::nullopt;
    const std::uint8_t flags = pdu[0];
    const std::uint8_t length = pdu[1] & 0x3F;
    if (pdu.size() != static_cast<std::size_t>(length) + 2) return std::nullopt;
    AdvPduView out;
    out.type = static_cast<AdvPduType>(flags & 0x0F);
    out.ch_sel = (flags & (1u << 5)) != 0;
    out.tx_add = (flags & (1u << 6)) != 0;
    out.rx_add = (flags & (1u << 7)) != 0;
    out.payload = pdu.subspan(2);
    return out;
}

Bytes AdvPdu::serialize() const {
    return serialize_pdu(AdvPduView(*this).header(), payload);
}

std::optional<AdvPdu> AdvPdu::parse(BytesView pdu) {
    const auto view = AdvPduView::parse(pdu);
    if (!view) return std::nullopt;
    return AdvPdu{view->type, view->ch_sel, view->tx_add, view->rx_add,
                  Bytes(view->payload.begin(), view->payload.end())};
}

}  // namespace ble::link
