#include "host/l2cap.hpp"

#include <algorithm>
#include <array>

#include "common/log.hpp"

namespace ble::host {

void L2capChannel::send(std::uint16_t cid, BytesView sdu) {
    // The basic-mode frame is [len | cid | sdu]; each fragment takes the next
    // max_ll_payload_ bytes of it, the first one starting with the header.
    const std::array<std::uint8_t, kHeaderBytes> header{
        static_cast<std::uint8_t>(sdu.size()), static_cast<std::uint8_t>(sdu.size() >> 8),
        static_cast<std::uint8_t>(cid), static_cast<std::uint8_t>(cid >> 8)};
    const std::size_t frame_size = kHeaderBytes + sdu.size();
    for (std::size_t off = 0; off < frame_size; off += max_ll_payload_) {
        const std::size_t end = std::min(off + max_ll_payload_, frame_size);
        Bytes fragment;
        fragment.reserve(end - off);
        if (off < kHeaderBytes) {
            fragment.insert(fragment.end(), header.begin() + static_cast<std::ptrdiff_t>(off),
                            header.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(end, kHeaderBytes)));
        }
        const std::size_t sdu_from = std::max(off, kHeaderBytes) - kHeaderBytes;
        const std::size_t sdu_to = std::max(end, kHeaderBytes) - kHeaderBytes;
        fragment.insert(fragment.end(), sdu.begin() + static_cast<std::ptrdiff_t>(sdu_from),
                        sdu.begin() + static_cast<std::ptrdiff_t>(sdu_to));
        send_(off == 0 ? link::Llid::kDataStart : link::Llid::kDataContinuation,
              std::move(fragment));
    }
}

bool L2capChannel::deliver_if_complete(BytesView frame) {
    if (frame.size() < kHeaderBytes) return false;  // header incomplete
    ByteReader r(frame);
    const std::uint16_t len = *r.read_u16();
    const std::uint16_t cid = *r.read_u16();
    const std::size_t expected = kHeaderBytes + len;
    if (frame.size() < expected) return false;
    if (frame.size() > expected) {
        BLE_LOG_DEBUG("l2cap: oversized frame, dropping");
        return true;
    }
    deliver_(cid, frame.subspan(kHeaderBytes));
    return true;
}

void L2capChannel::handle_ll_pdu(const link::DataPduView& pdu) {
    if (pdu.llid == link::Llid::kDataStart) {
        // A start fragment discards any stale partial frame.  When it holds
        // the whole frame (the common case), the SDU is a view into it.
        rx_buffer_.clear();
        if (deliver_if_complete(pdu.payload)) return;
        rx_buffer_.assign(pdu.payload.begin(), pdu.payload.end());
        return;
    }
    if (pdu.llid != link::Llid::kDataContinuation || pdu.payload.empty()) return;
    if (rx_buffer_.empty()) {
        BLE_LOG_DEBUG("l2cap: continuation without a start fragment, dropping");
        return;
    }
    rx_buffer_.insert(rx_buffer_.end(), pdu.payload.begin(), pdu.payload.end());
    // Delivered from a local, so the reassembly state is already reset while
    // the SDU view borrows the bytes.
    Bytes frame = std::move(rx_buffer_);
    rx_buffer_.clear();
    if (!deliver_if_complete(frame)) rx_buffer_ = std::move(frame);  // wait for more
}

}  // namespace ble::host
