// Byte-stream transports for the campaign wire.
//
// The leader/worker protocol needs nothing from a transport but ordered
// bytes and a detectable end-of-stream, so everything is a ByteStream:
//
//  * FdStream  — a POSIX fd (the pipe to a spawned worker, or a worker's
//    stdout); reads are poll()-bounded so a hung worker turns into a
//    timeout the leader converts into task re-issue instead of a wedged
//    campaign;
//  * Conduit / ConduitStream — an in-memory pipe pair for in-process
//    workers (threads) and for tests.
//
// Process spawning lives in endpoint.cpp.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace injectable::campaign {

enum class ReadStatus {
    kData = 0,     ///< bytes were appended to `out`
    kEof = 1,      ///< orderly end of stream
    kTimeout = 2,  ///< nothing arrived within the deadline
    kError = 3,    ///< transport failure
};

class ByteStream {
public:
    virtual ~ByteStream() = default;

    /// Writes all of `bytes` (blocking); false on failure (peer gone).
    virtual bool write(std::string_view bytes) = 0;

    /// Appends whatever is available (blocking up to timeout_ms; < 0 waits
    /// forever) to `out`.
    [[nodiscard]] virtual ReadStatus read_some(std::string& out, int timeout_ms) = 0;

    /// Signals end-of-stream to the peer.
    virtual void close_write() = 0;
};

/// Owns a POSIX fd.  Pipes have no half-close, so `close_write` closes the
/// fd: that is the only way to deliver EOF to the reading end.
class FdStream final : public ByteStream {
public:
    explicit FdStream(int fd) : fd_(fd) {}
    ~FdStream() override;
    FdStream(const FdStream&) = delete;
    FdStream& operator=(const FdStream&) = delete;

    bool write(std::string_view bytes) override;
    [[nodiscard]] ReadStatus read_some(std::string& out, int timeout_ms) override;
    void close_write() override;

    [[nodiscard]] int fd() const noexcept { return fd_; }

private:
    int fd_ = -1;
};

/// One direction of an in-memory pipe: a mutex/condvar-guarded byte buffer
/// with an explicit closed flag.
class Conduit {
public:
    void push(std::string_view bytes);
    void close();
    [[nodiscard]] ReadStatus pull(std::string& out, int timeout_ms);

private:
    std::mutex mutex_;  // guards: buffer_, closed_ (cv_ waits under it)
    std::condition_variable cv_;
    std::string buffer_;
    bool closed_ = false;
};

/// A ByteStream over two conduits (read from one, write to the other); the
/// peer stream swaps them.  make_conduit_pair() returns both ends.
class ConduitStream final : public ByteStream {
public:
    ConduitStream(std::shared_ptr<Conduit> read_side, std::shared_ptr<Conduit> write_side)
        : read_(std::move(read_side)), write_(std::move(write_side)) {}

    bool write(std::string_view bytes) override;
    [[nodiscard]] ReadStatus read_some(std::string& out, int timeout_ms) override;
    void close_write() override;

private:
    std::shared_ptr<Conduit> read_;
    std::shared_ptr<Conduit> write_;
};

struct ConduitPair {
    std::unique_ptr<ByteStream> leader;  ///< leader end
    std::unique_ptr<ByteStream> worker;  ///< worker end
};
[[nodiscard]] ConduitPair make_conduit_pair();

}  // namespace injectable::campaign
