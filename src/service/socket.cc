#include "src/service/socket.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace keq::service {

namespace {

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Remaining budget for a deadline that started at @p start. */
int
remainingMs(int64_t start, unsigned deadline_ms)
{
    if (deadline_ms == 0)
        return -1; // poll: wait forever
    int64_t elapsed = nowMs() - start;
    int64_t left = static_cast<int64_t>(deadline_ms) - elapsed;
    return left <= 0 ? 0 : static_cast<int>(left);
}

bool
fillSockaddr(const std::string &path, sockaddr_un &addr,
             std::string &error)
{
    if (path.empty()) {
        error = "empty socket path";
        return false;
    }
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        error = "socket path longer than sun_path (" + path + ")";
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/** Latency beats throughput for small request/verdict frames. */
void
tuneTcpFd(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/** Shared poll+accept4 loop for both listeners. */
int
acceptOn(int listenFd, unsigned timeout_ms)
{
    if (listenFd < 0)
        return -1;
    pollfd pfd{listenFd, POLLIN, 0};
    int ready = ::poll(&pfd, 1,
                       timeout_ms == 0 ? -1
                                       : static_cast<int>(timeout_ms));
    if (ready <= 0)
        return -1;
    return ::accept4(listenFd, nullptr, nullptr, SOCK_CLOEXEC);
}

} // namespace

// --- UnixListener --------------------------------------------------------

UnixListener::~UnixListener() { close(); }

bool
UnixListener::listenOn(const std::string &path, std::string &error)
{
    return listenOn(unixEndpoint(path), error);
}

bool
UnixListener::listenOn(const Endpoint &endpoint, std::string &error)
{
    if (endpoint.kind != TransportKind::Unix) {
        error = "UnixListener given a non-unix endpoint";
        return false;
    }
    const std::string &path = endpoint.path;
    sockaddr_un addr{};
    if (!fillSockaddr(path, addr, error))
        return false;

    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        if (errno == EADDRINUSE) {
            // A previous daemon may have crashed without unlinking. If
            // nothing answers on the socket, it is stale: remove and
            // retry once. A *live* daemon accepts the probe and we
            // refuse to steal its address.
            int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            bool alive =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) == 0;
            if (probe >= 0)
                ::close(probe);
            if (alive) {
                error = "address in use: a daemon is already "
                        "listening on " +
                        path;
                ::close(fd);
                return false;
            }
            ::unlink(path.c_str());
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                error = std::string("bind: ") + std::strerror(errno);
                ::close(fd);
                return false;
            }
        } else {
            error = std::string("bind: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
    }
    if (::listen(fd, 64) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        ::unlink(path.c_str());
        return false;
    }
    fd_ = fd;
    endpoint_ = endpoint;
    return true;
}

int
UnixListener::acceptClient(unsigned timeout_ms)
{
    return acceptOn(fd_, timeout_ms);
}

void
UnixListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        if (!endpoint_.path.empty())
            ::unlink(endpoint_.path.c_str());
        endpoint_ = Endpoint{};
    }
}

// --- TcpListener ---------------------------------------------------------

TcpListener::~TcpListener() { close(); }

bool
TcpListener::listenOn(const Endpoint &endpoint, std::string &error)
{
    if (endpoint.kind != TransportKind::Tcp) {
        error = "TcpListener given a non-tcp endpoint";
        return false;
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
    addrinfo *results = nullptr;
    std::string service = std::to_string(endpoint.port);
    int rc = ::getaddrinfo(endpoint.host.c_str(), service.c_str(),
                           &hints, &results);
    if (rc != 0) {
        error = "resolve " + endpointToString(endpoint) + ": " +
                ::gai_strerror(rc);
        return false;
    }
    std::string lastError = "no addresses";
    for (addrinfo *ai = results; ai != nullptr; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family,
                          ai->ai_socktype | SOCK_CLOEXEC,
                          ai->ai_protocol);
        if (fd < 0) {
            lastError = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(fd, 64) != 0) {
            lastError = std::string(errno == EADDRINUSE
                                        ? "address in use: "
                                        : "bind/listen: ") +
                        std::strerror(errno);
            ::close(fd);
            continue;
        }
        fd_ = fd;
        endpoint_ = endpoint;
        // Report the kernel-assigned port for an ephemeral (:0) bind.
        sockaddr_storage bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0) {
            if (bound.ss_family == AF_INET)
                endpoint_.port = ntohs(
                    reinterpret_cast<sockaddr_in *>(&bound)->sin_port);
            else if (bound.ss_family == AF_INET6)
                endpoint_.port = ntohs(
                    reinterpret_cast<sockaddr_in6 *>(&bound)
                        ->sin6_port);
        }
        ::freeaddrinfo(results);
        return true;
    }
    ::freeaddrinfo(results);
    error = "listen " + endpointToString(endpoint) + ": " + lastError;
    return false;
}

int
TcpListener::acceptClient(unsigned timeout_ms)
{
    int client = acceptOn(fd_, timeout_ms);
    if (client >= 0)
        tuneTcpFd(client);
    return client;
}

void
TcpListener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        endpoint_ = Endpoint{};
    }
}

std::unique_ptr<Listener>
makeListener(const Endpoint &endpoint)
{
    if (endpoint.kind == TransportKind::Tcp)
        return std::make_unique<TcpListener>();
    return std::make_unique<UnixListener>();
}

// --- connectEndpoint -----------------------------------------------------

namespace {

bool
connectUnixImpl(const std::string &path, unsigned timeout_ms, int &fd,
                std::string &error)
{
    sockaddr_un addr{};
    if (!fillSockaddr(path, addr, error))
        return false;
    int sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (sock < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // AF_UNIX connects complete or fail immediately (the backlog is the
    // only wait), so a plain blocking connect with a retry loop on
    // EAGAIN is enough; timeout_ms bounds the backlog wait.
    int64_t start = nowMs();
    for (;;) {
        if (::connect(sock, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0) {
            fd = sock;
            return true;
        }
        if (errno != EAGAIN && errno != EINTR &&
            errno != ECONNREFUSED) {
            break;
        }
        if (errno == ECONNREFUSED || errno == EAGAIN) {
            // Full backlog (or the daemon is mid-start). Retry within
            // the budget.
            if (timeout_ms == 0 ||
                nowMs() - start >= static_cast<int64_t>(timeout_ms))
                break;
            struct timespec ts{0, 10 * 1000 * 1000}; // 10 ms
            ::nanosleep(&ts, nullptr);
        }
    }
    error = std::string("connect ") + path + ": " + std::strerror(errno);
    ::close(sock);
    return false;
}

/**
 * One non-blocking TCP connect attempt with a poll deadline. Returns
 * the connected blocking fd, or -1 with errno describing the failure.
 */
int
connectTcpOnce(const addrinfo *ai, int deadlineLeftMs)
{
    int sock = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                        ai->ai_protocol);
    if (sock < 0)
        return -1;
    int flags = ::fcntl(sock, F_GETFL, 0);
    ::fcntl(sock, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(sock, ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
        int saved = errno;
        ::close(sock);
        errno = saved;
        return -1;
    }
    if (rc != 0) {
        pollfd pfd{sock, POLLOUT, 0};
        int64_t start = nowMs();
        for (;;) {
            int wait = deadlineLeftMs < 0
                           ? -1
                           : std::max<int>(
                                 0, deadlineLeftMs -
                                        static_cast<int>(nowMs() -
                                                         start));
            int ready = ::poll(&pfd, 1, wait);
            if (ready < 0 && errno == EINTR)
                continue;
            if (ready <= 0) {
                ::close(sock);
                errno = ETIMEDOUT;
                return -1;
            }
            break;
        }
        int soError = 0;
        socklen_t len = sizeof soError;
        if (::getsockopt(sock, SOL_SOCKET, SO_ERROR, &soError,
                         &len) != 0 ||
            soError != 0) {
            ::close(sock);
            errno = soError != 0 ? soError : ECONNREFUSED;
            return -1;
        }
    }
    ::fcntl(sock, F_SETFL, flags);
    tuneTcpFd(sock);
    return sock;
}

bool
connectTcp(const Endpoint &endpoint, unsigned timeout_ms, int &fd,
           std::string &error)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    addrinfo *results = nullptr;
    std::string service = std::to_string(endpoint.port);
    int rc = ::getaddrinfo(endpoint.host.c_str(), service.c_str(),
                           &hints, &results);
    if (rc != 0) {
        error = "resolve " + endpointToString(endpoint) + ": " +
                ::gai_strerror(rc);
        return false;
    }
    int64_t start = nowMs();
    int lastErrno = ECONNREFUSED;
    // A refused connect (daemon mid-start, backlog full) retries within
    // the budget, mirroring the unix transport's behavior so warm-up
    // races resolve identically on both.
    for (;;) {
        for (addrinfo *ai = results; ai != nullptr; ai = ai->ai_next) {
            int left = remainingMs(start, timeout_ms);
            if (timeout_ms != 0 && left == 0)
                break;
            int sock = connectTcpOnce(ai, left);
            if (sock >= 0) {
                ::freeaddrinfo(results);
                fd = sock;
                return true;
            }
            lastErrno = errno;
        }
        if (lastErrno != ECONNREFUSED || timeout_ms == 0 ||
            nowMs() - start >= static_cast<int64_t>(timeout_ms))
            break;
        struct timespec ts{0, 10 * 1000 * 1000}; // 10 ms
        ::nanosleep(&ts, nullptr);
    }
    ::freeaddrinfo(results);
    error = "connect " + endpointToString(endpoint) + ": " +
            std::strerror(lastErrno);
    return false;
}

} // namespace

bool
connectEndpoint(const Endpoint &endpoint, unsigned timeout_ms, int &fd,
                std::string &error)
{
    if (endpoint.kind == TransportKind::Tcp)
        return connectTcp(endpoint, timeout_ms, fd, error);
    return connectUnixImpl(endpoint.path, timeout_ms, fd, error);
}

bool
connectUnix(const std::string &path, unsigned timeout_ms, int &fd,
            std::string &error)
{
    return connectUnixImpl(path, timeout_ms, fd, error);
}

} // namespace keq::service
