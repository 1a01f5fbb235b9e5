#ifndef KEQ_SERVICE_SOCKET_H
#define KEQ_SERVICE_SOCKET_H

/**
 * @file
 * Stream-socket transports for the validation service.
 *
 * The daemon and its clients exchange exactly the same length-prefixed
 * frames as the solver sandbox (smt/wire: u32 LE payload length +
 * payload), over stream sockets instead of pipes, and through the same
 * transport: WireChannel is support::FramedChannel built on one
 * connected socket fd. Its guarantees (resumable deadline-aware
 * receives, MSG_NOSIGNAL sends, length validation before allocation,
 * interrupted-call and short-transfer loops) are documented in
 * support/framed_channel.h and pinned by the fragmenting
 * fault-injection tests.
 *
 * Two transports implement one Listener seam: AF_UNIX (single host,
 * filesystem permissions) and AF_INET/AF_INET6 TCP (multi-host). The
 * frame layer never cares how its fd was made.
 */

#include <memory>
#include <string>

#include "src/service/endpoint.h"
#include "src/support/framed_channel.h"

namespace keq::service {

/** One connected stream socket speaking wire frames. */
using WireChannel = support::FramedChannel;

/**
 * A daemon listening socket: the transport seam. One implementation
 * per TransportKind; the Server holds several and treats them
 * uniformly (one accept thread each, one shared FairQueue behind).
 */
class Listener
{
  public:
    virtual ~Listener() = default;

    /** Binds + listens on @p endpoint; false with @p error. */
    virtual bool listenOn(const Endpoint &endpoint,
                          std::string &error) = 0;

    /**
     * Accepts one connection, waiting up to @p timeout_ms (0 =
     * forever). Returns a CLOEXEC fd >= 0, or -1 on timeout / closed
     * listener.
     */
    virtual int acceptClient(unsigned timeout_ms) = 0;

    virtual void close() = 0;
    virtual bool listening() const = 0;

    /**
     * The endpoint actually bound. For a TCP listen on port 0 this
     * carries the kernel-assigned ephemeral port, so tests and the
     * keqd startup banner can name a connectable address.
     */
    virtual const Endpoint &endpoint() const = 0;

    TransportKind transport() const { return endpoint().kind; }
};

/**
 * AF_UNIX listener. Binds, listens, and unlinks the filesystem path on
 * close, so a cleanly stopped daemon leaves no stale socket behind. A
 * stale file from a *crashed* daemon is detected at bind time: if
 * nothing accepts connections on it, it is unlinked and the bind
 * retried.
 */
class UnixListener : public Listener
{
  public:
    UnixListener() = default;
    ~UnixListener() override;

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    bool listenOn(const Endpoint &endpoint,
                  std::string &error) override;
    /** Legacy path form (equivalent to a unix: endpoint). */
    bool listenOn(const std::string &path, std::string &error);

    int acceptClient(unsigned timeout_ms) override;
    void close() override;
    bool listening() const override { return fd_ >= 0; }
    const Endpoint &endpoint() const override { return endpoint_; }
    const std::string &path() const { return endpoint_.path; }

  private:
    int fd_ = -1;
    Endpoint endpoint_;
};

/**
 * AF_INET/AF_INET6 TCP listener. Resolves the host with getaddrinfo
 * (numeric literals and names both work), binds with SO_REUSEADDR so a
 * restarted daemon reclaims its port without waiting out TIME_WAIT,
 * and applies TCP_NODELAY to every accepted connection — wire frames
 * are small and latency-bound, so Nagle buys nothing here.
 */
class TcpListener : public Listener
{
  public:
    TcpListener() = default;
    ~TcpListener() override;

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    bool listenOn(const Endpoint &endpoint,
                  std::string &error) override;
    int acceptClient(unsigned timeout_ms) override;
    void close() override;
    bool listening() const override { return fd_ >= 0; }
    const Endpoint &endpoint() const override { return endpoint_; }

  private:
    int fd_ = -1;
    Endpoint endpoint_;
};

/** Unbound listener of the right transport for @p endpoint. */
std::unique_ptr<Listener> makeListener(const Endpoint &endpoint);

/**
 * Connects to a daemon endpoint, waiting up to @p timeout_ms for the
 * connect to complete. Unix connects retry a full backlog within the
 * budget; TCP connects are non-blocking + poll so an unreachable host
 * costs the budget, never a hung thread. On success the fd is blocking
 * and (for TCP) has TCP_NODELAY set.
 */
bool connectEndpoint(const Endpoint &endpoint, unsigned timeout_ms,
                     int &fd, std::string &error);

/** Legacy form of connectEndpoint for a unix path. */
bool connectUnix(const std::string &path, unsigned timeout_ms, int &fd,
                 std::string &error);

} // namespace keq::service

#endif // KEQ_SERVICE_SOCKET_H
