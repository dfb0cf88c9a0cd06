// describe_frame: a Wireshark-style one-line decode of a serialized frame —
// sender-independent, so any obs::EventBus subscriber that sees an
// obs::TxStart (the JSONL trace sink, the quickstart's INJECTABLE_TRACE=1
// printer, debugging sessions) can name the PDU, flow-control bits and
// control opcode it carries.
#pragma once

#include <string>

#include "common/bytes.hpp"

namespace ble::link {

/// Decodes a serialized frame (AA + PDU + CRC), e.g. "ADV_IND (21B)" or
/// "DATA sn=1 nesn=0 LL_TERMINATE_IND".
[[nodiscard]] std::string describe_frame(BytesView bytes);

}  // namespace ble::link
