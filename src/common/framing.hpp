// Length-prefixed frame codec for the campaign wire protocol.
//
// Wire format (little-endian, fixed 8-byte header):
//
//     u32 payload_len | u32 type | payload bytes
//
// The codec is transport-agnostic: encode_frame() produces bytes suitable for
// any byte stream (pipe, file, in-memory conduit), and FrameDecoder is an
// incremental push parser — feed() arbitrary chunk boundaries, pop complete
// frames with next().  A frame cut short by a closed stream is simply
// never surfaced, which is exactly the property the campaign result cache
// relies on: partial results are discarded wholesale, never half-applied.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

namespace ble::common {

struct Frame {
    std::uint32_t type = 0;
    std::string payload;

    friend bool operator==(const Frame&, const Frame&) = default;
};

/// Upper bound on a single frame payload (64 MiB).  A decoder seeing a larger
/// length declares a protocol error instead of attempting the allocation —
/// corrupt or misaligned streams fail fast.
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// Appends the encoded frame to `out`.
void append_frame(std::string& out, std::uint32_t type, std::string_view payload);

/// Encodes one frame (header + payload) as a fresh byte string.
[[nodiscard]] std::string encode_frame(std::uint32_t type, std::string_view payload);

/// Incremental frame parser.  Not thread-safe; one decoder per stream.
class FrameDecoder {
public:
    /// Appends raw bytes from the transport (any chunking).
    void feed(std::string_view bytes);

    /// Pops the next complete frame, or nullopt when none is buffered.
    /// Returns nullopt forever once error() is set.
    [[nodiscard]] std::optional<Frame> next();

    /// Non-empty once the stream is unrecoverably malformed (oversized
    /// length prefix).
    [[nodiscard]] const std::string& error() const noexcept { return error_; }

    /// True when buffered bytes form a frame prefix but not a whole frame —
    /// i.e. the peer vanished mid-frame if no more bytes ever arrive.
    [[nodiscard]] bool mid_frame() const noexcept { return !buffer_.empty(); }

private:
    std::string buffer_;
    std::string error_;
};

}  // namespace ble::common
