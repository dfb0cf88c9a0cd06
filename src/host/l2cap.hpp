// Minimal L2CAP basic-mode framing: [length u16 | CID u16 | payload],
// fragmented over Link-Layer data PDUs (LLID "start" / "continuation").
// ATT rides on the fixed channel 0x0004.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "link/pdu.hpp"

namespace ble::host {

constexpr std::uint16_t kAttCid = 0x0004;

class L2capChannel {
public:
    /// Sends one LL fragment (LLID + payload).
    using SendFragment = std::function<void(link::Llid, Bytes)>;
    /// Delivers one SDU.  The view is valid only during the call: it borrows
    /// either the received LL payload (single-fragment SDUs) or the
    /// reassembly buffer.
    using DeliverSdu = std::function<void(std::uint16_t cid, BytesView sdu)>;

    L2capChannel(std::size_t max_ll_payload, SendFragment send, DeliverSdu deliver)
        : max_ll_payload_(max_ll_payload), send_(std::move(send)),
          deliver_(std::move(deliver)) {}

    /// Frames `sdu` on `cid` and emits one or more LL fragments, each built
    /// directly from the header and the SDU (no intermediate frame buffer).
    void send(std::uint16_t cid, BytesView sdu);

    /// Feed every received (non-control) LL data PDU here.  A complete
    /// single-fragment SDU is delivered as a view into `pdu.payload`; only
    /// fragmented SDUs are reassembled into an owned buffer.
    void handle_ll_pdu(const link::DataPduView& pdu);

    [[nodiscard]] std::size_t pending_rx_bytes() const noexcept { return rx_buffer_.size(); }

private:
    static constexpr std::size_t kHeaderBytes = 4;  // length u16 | CID u16

    std::size_t max_ll_payload_;
    SendFragment send_;
    DeliverSdu deliver_;

    /// Delivers the L2CAP frame `frame` (header included) once it is
    /// complete; returns false while more fragments are needed.
    bool deliver_if_complete(BytesView frame);

    Bytes rx_buffer_;  // accumulating fragmented L2CAP frame (starts with header)
};

}  // namespace ble::host
