#ifndef KEQ_SUPPORT_FRAMED_CHANNEL_H
#define KEQ_SUPPORT_FRAMED_CHANNEL_H

/**
 * @file
 * The one length-prefixed frame transport over file descriptors.
 *
 * Every process and host boundary in keq speaks the same framing: a
 * u32 little-endian payload length followed by the payload (see
 * smt/wire.h for what a payload holds). The sandbox parent and its
 * solver workers exchange frames over a pipe pair; keqd and its
 * clients exchange them over a connected stream socket. FramedChannel
 * is the only code that reads or writes those bytes, so both
 * boundaries share one set of guarantees:
 *
 *  - sendFrame resumes short writes and retries EINTR, and never
 *    raises SIGPIPE: sockets write with MSG_NOSIGNAL, and a pipe
 *    channel ignores SIGPIPE process-wide (once, when the first one is
 *    built). A vanished peer is a false return, never a process death.
 *  - recvFrame returns whole payloads only. The announced length is
 *    checked against kMaxFramePayload before any allocation, so a
 *    garbage peer cannot make the reader allocate gigabytes.
 *  - Receives are resumable. A deadline that expires mid-frame returns
 *    Timeout and keeps the bytes already read; the next recvFrame
 *    continues that frame. Callers can therefore poll on short ticks
 *    (heartbeats, stop checks, a multi-worker pump) without ever
 *    tearing a frame, however the kernel fragments it.
 *  - Nothing is read past the current frame, so poll(2) on readFd()
 *    tells exactly whether more bytes are waiting.
 *
 * One thread may send while another receives: the two directions share
 * no state. Concurrent senders must serialize whole frames themselves.
 */

#include <cstddef>
#include <cstdint>
#include <string>

namespace keq::support {

/** Upper bound on one frame payload; longer lengths are corrupt. */
constexpr uint32_t kMaxFramePayload = 64u << 20;

/** Result of a deadline-aware receive. */
enum class IoStatus {
    Ok,      ///< a whole frame arrived
    Eof,     ///< the peer closed the stream (also mid-frame)
    Timeout, ///< deadline expired; a partial frame is kept for later
    Error,   ///< errno-level failure or a corrupt length prefix
};

/**
 * A framed byte stream over a read fd and a write fd: the same fd for
 * a connected socket, two ends for a pipe pair. Owns its fds (closed on
 * destruction); movable, not copyable.
 */
class FramedChannel
{
  public:
    FramedChannel() = default;
    /** A connected stream socket, used in both directions. */
    explicit FramedChannel(int socketFd);
    /** A pipe pair: frames arrive on @p readFd, leave on @p writeFd. */
    FramedChannel(int readFd, int writeFd);
    ~FramedChannel();

    FramedChannel(FramedChannel &&rhs) noexcept;
    FramedChannel &operator=(FramedChannel &&rhs) noexcept;
    FramedChannel(const FramedChannel &) = delete;
    FramedChannel &operator=(const FramedChannel &) = delete;

    bool valid() const { return readFd_ >= 0; }
    int readFd() const { return readFd_; }
    int writeFd() const { return writeFd_; }

    /**
     * Writes one already-framed byte string (wire::frameBytes output).
     * False when the peer is gone or the write fails.
     */
    bool sendFrame(const std::string &frame);

    /**
     * Receives one frame payload into @p payload (the length prefix is
     * consumed and validated here). @p deadlineMs bounds this call;
     * 0 waits forever. Timeout keeps any partial frame for the next
     * call; Eof and Error discard it.
     */
    IoStatus recvFrame(std::string &payload, unsigned deadlineMs);

    /** shutdown(2) both directions of a socket: unblocks any reader. */
    void shutdownBoth();

    void close();

    /** Bytes of whole frames sent / received, length prefixes included. */
    uint64_t bytesSent() const { return bytesSent_; }
    uint64_t bytesReceived() const { return bytesReceived_; }

  private:
    IoStatus fill(char *dst, size_t want, size_t &have,
                  unsigned deadlineMs, int64_t startMs);
    void dropPartial();

    int readFd_ = -1;
    int writeFd_ = -1;
    bool socket_ = false; ///< send(2) with MSG_NOSIGNAL, not write(2)

    // The frame in progress, kept across Timeouts.
    char header_[4] = {};
    size_t headerHave_ = 0;
    bool inBody_ = false;
    std::string body_;
    size_t bodyHave_ = 0;

    uint64_t bytesSent_ = 0;
    uint64_t bytesReceived_ = 0;
};

} // namespace keq::support

#endif // KEQ_SUPPORT_FRAMED_CHANNEL_H
