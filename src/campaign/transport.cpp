#include "campaign/transport.hpp"

#include <cerrno>
#include <chrono>

#include <poll.h>
#include <unistd.h>

namespace injectable::campaign {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

FdStream::~FdStream() {
    if (fd_ >= 0) ::close(fd_);
}

bool FdStream::write(std::string_view bytes) {
    if (fd_ < 0) return false;
    std::size_t off = 0;
    while (off < bytes.size()) {
        // A closed pipe raises SIGPIPE, so callers that spawn workers
        // (campaign_ctl) ignore SIGPIPE and see the failed write instead.
        const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

ReadStatus FdStream::read_some(std::string& out, int timeout_ms) {
    if (fd_ < 0) return ReadStatus::kError;
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    for (;;) {
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc < 0) {
            if (errno == EINTR) continue;
            return ReadStatus::kError;
        }
        if (rc == 0) return ReadStatus::kTimeout;
        break;
    }
    char buffer[kReadChunk];
    for (;;) {
        const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
        if (n < 0) {
            if (errno == EINTR) continue;
            return ReadStatus::kError;
        }
        if (n == 0) return ReadStatus::kEof;
        out.append(buffer, static_cast<std::size_t>(n));
        return ReadStatus::kData;
    }
}

void FdStream::close_write() {
    if (fd_ < 0) return;
    ::close(fd_);
    fd_ = -1;
}

void Conduit::push(std::string_view bytes) {
    {
        const std::lock_guard lock(mutex_);
        if (closed_) return;
        buffer_.append(bytes);
    }
    cv_.notify_all();
}

void Conduit::close() {
    {
        const std::lock_guard lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

ReadStatus Conduit::pull(std::string& out, int timeout_ms) {
    std::unique_lock lock(mutex_);
    auto ready = [&] { return !buffer_.empty() || closed_; };
    if (timeout_ms < 0) {
        cv_.wait(lock, ready);
    } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), ready)) {
        return ReadStatus::kTimeout;
    }
    if (!buffer_.empty()) {
        out.append(buffer_);
        buffer_.clear();
        return ReadStatus::kData;
    }
    return ReadStatus::kEof;  // closed and drained
}

bool ConduitStream::write(std::string_view bytes) {
    write_->push(bytes);
    return true;
}

ReadStatus ConduitStream::read_some(std::string& out, int timeout_ms) {
    return read_->pull(out, timeout_ms);
}

void ConduitStream::close_write() { write_->close(); }

ConduitPair make_conduit_pair() {
    auto to_leader = std::make_shared<Conduit>();
    auto to_worker = std::make_shared<Conduit>();
    ConduitPair pair;
    pair.leader = std::make_unique<ConduitStream>(to_leader, to_worker);
    pair.worker = std::make_unique<ConduitStream>(to_worker, to_leader);
    return pair;
}

}  // namespace injectable::campaign
