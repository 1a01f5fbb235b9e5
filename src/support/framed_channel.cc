#include "src/support/framed_channel.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <mutex>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace keq::support {

namespace {

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

FramedChannel::FramedChannel(int socketFd)
    : readFd_(socketFd), writeFd_(socketFd), socket_(true)
{}

FramedChannel::FramedChannel(int readFd, int writeFd)
    : readFd_(readFd), writeFd_(writeFd)
{
    // write(2) has no MSG_NOSIGNAL: a pipe whose reader died must
    // surface as EPIPE, not kill this process.
    static std::once_flag ignoreSigpipe;
    std::call_once(ignoreSigpipe, [] { std::signal(SIGPIPE, SIG_IGN); });
}

FramedChannel::~FramedChannel() { close(); }

FramedChannel::FramedChannel(FramedChannel &&rhs) noexcept
{
    *this = std::move(rhs);
}

FramedChannel &
FramedChannel::operator=(FramedChannel &&rhs) noexcept
{
    if (this != &rhs) {
        close();
        readFd_ = rhs.readFd_;
        writeFd_ = rhs.writeFd_;
        socket_ = rhs.socket_;
        std::copy(rhs.header_, rhs.header_ + 4, header_);
        headerHave_ = rhs.headerHave_;
        inBody_ = rhs.inBody_;
        body_ = std::move(rhs.body_);
        bodyHave_ = rhs.bodyHave_;
        bytesSent_ = rhs.bytesSent_;
        bytesReceived_ = rhs.bytesReceived_;
        rhs.readFd_ = -1;
        rhs.writeFd_ = -1;
        rhs.dropPartial();
    }
    return *this;
}

void
FramedChannel::close()
{
    if (readFd_ >= 0)
        ::close(readFd_);
    if (writeFd_ >= 0 && writeFd_ != readFd_)
        ::close(writeFd_);
    readFd_ = -1;
    writeFd_ = -1;
    dropPartial();
}

void
FramedChannel::shutdownBoth()
{
    if (socket_ && readFd_ >= 0)
        ::shutdown(readFd_, SHUT_RDWR);
}

void
FramedChannel::dropPartial()
{
    headerHave_ = 0;
    inBody_ = false;
    body_.clear();
    bodyHave_ = 0;
}

bool
FramedChannel::sendFrame(const std::string &frame)
{
    if (writeFd_ < 0)
        return false;
    // A socket or pipe under pressure routinely takes only part of a
    // frame per call; resume from the offset.
    size_t offset = 0;
    while (offset < frame.size()) {
        const char *data = frame.data() + offset;
        size_t left = frame.size() - offset;
        ssize_t wrote = socket_ ? ::send(writeFd_, data, left, MSG_NOSIGNAL)
                                : ::write(writeFd_, data, left);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false; // EPIPE/ECONNRESET: the peer is gone
        }
        offset += static_cast<size_t>(wrote);
    }
    bytesSent_ += frame.size();
    return true;
}

IoStatus
FramedChannel::fill(char *dst, size_t want, size_t &have,
                    unsigned deadlineMs, int64_t startMs)
{
    while (have < want) {
        int waitMs = -1;
        if (deadlineMs != 0) {
            int64_t left = static_cast<int64_t>(deadlineMs) -
                           (nowMs() - startMs);
            if (left <= 0)
                return IoStatus::Timeout;
            waitMs = static_cast<int>(left);
        }
        pollfd pfd{readFd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, waitMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return IoStatus::Error;
        }
        if (ready == 0)
            return IoStatus::Timeout;
        ssize_t got = ::read(readFd_, dst + have, want - have);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return IoStatus::Error;
        }
        if (got == 0)
            return IoStatus::Eof;
        have += static_cast<size_t>(got);
    }
    return IoStatus::Ok;
}

IoStatus
FramedChannel::recvFrame(std::string &payload, unsigned deadlineMs)
{
    if (readFd_ < 0)
        return IoStatus::Error;
    int64_t startMs = nowMs();
    IoStatus status = IoStatus::Ok;
    if (!inBody_) {
        status = fill(header_, 4, headerHave_, deadlineMs, startMs);
        if (status == IoStatus::Ok) {
            uint32_t length = 0;
            for (int i = 3; i >= 0; --i)
                length = (length << 8) | static_cast<uint8_t>(header_[i]);
            if (length == 0 || length > kMaxFramePayload) {
                dropPartial();
                return IoStatus::Error;
            }
            inBody_ = true;
            body_.resize(length);
            bodyHave_ = 0;
        }
    }
    if (status == IoStatus::Ok)
        status = fill(body_.data(), body_.size(), bodyHave_, deadlineMs,
                      startMs);
    if (status == IoStatus::Timeout)
        return status; // resumable: the partial frame stays
    if (status != IoStatus::Ok) {
        dropPartial();
        return status;
    }
    bytesReceived_ += 4 + static_cast<uint64_t>(body_.size());
    payload = std::move(body_);
    dropPartial();
    return IoStatus::Ok;
}

} // namespace keq::support
