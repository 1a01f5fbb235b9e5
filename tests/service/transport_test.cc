/** @file Transport seam: endpoint-URI parsing (valid + malformed
 *  table), TCP/Unix listener round-trips, and the fragmenting
 *  fault-injection property — wire frames reassemble byte-identically
 *  on sockets and pipes no matter how the kernel (or a hostile writer)
 *  splits them, a deadline that cuts a frame resumes it, torn frames
 *  are typed Eof, and a silent peer is a typed Timeout. */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/service/endpoint.h"
#include "src/service/socket.h"
#include "src/smt/wire.h"
#include "src/support/rng.h"

namespace keq::service {
namespace {

namespace wire = smt::wire;
using support::IoStatus;

std::string
socketPath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            ("keqt-" + stem + "-" + std::to_string(::getpid()) +
             ".sock"))
        .string();
}

// ---- endpoint grammar ----

TEST(EndpointTest, ParsesUnixForms)
{
    Endpoint endpoint;
    std::string error;
    ASSERT_TRUE(parseEndpoint("unix:/tmp/keqd.sock", endpoint, error))
        << error;
    EXPECT_EQ(endpoint.kind, TransportKind::Unix);
    EXPECT_EQ(endpoint.path, "/tmp/keqd.sock");

    // Legacy bare path (what --daemon=PATH always meant).
    ASSERT_TRUE(parseEndpoint("/tmp/keqd.sock", endpoint, error))
        << error;
    EXPECT_EQ(endpoint.kind, TransportKind::Unix);
    EXPECT_EQ(endpoint.path, "/tmp/keqd.sock");

    // A relative bare path is also a unix path.
    ASSERT_TRUE(parseEndpoint("keqd.sock", endpoint, error)) << error;
    EXPECT_EQ(endpoint.kind, TransportKind::Unix);
    EXPECT_EQ(endpoint.path, "keqd.sock");
}

TEST(EndpointTest, ParsesTcpForms)
{
    Endpoint endpoint;
    std::string error;
    ASSERT_TRUE(
        parseEndpoint("tcp:127.0.0.1:7461", endpoint, error))
        << error;
    EXPECT_EQ(endpoint.kind, TransportKind::Tcp);
    EXPECT_EQ(endpoint.host, "127.0.0.1");
    EXPECT_EQ(endpoint.port, 7461);

    ASSERT_TRUE(parseEndpoint("tcp:localhost:0", endpoint, error))
        << error;
    EXPECT_EQ(endpoint.host, "localhost");
    EXPECT_EQ(endpoint.port, 0) << "port 0 (ephemeral) is legal";

    ASSERT_TRUE(parseEndpoint("tcp:[::1]:7461", endpoint, error))
        << error;
    EXPECT_EQ(endpoint.host, "::1");
    EXPECT_EQ(endpoint.port, 7461);
}

TEST(EndpointTest, ToStringRoundTrips)
{
    for (const char *spec :
         {"unix:/tmp/a.sock", "tcp:127.0.0.1:7461", "tcp:[::1]:80",
          "tcp:host.example:65535"}) {
        Endpoint endpoint;
        std::string error;
        ASSERT_TRUE(parseEndpoint(spec, endpoint, error)) << error;
        EXPECT_EQ(endpointToString(endpoint), spec);
        Endpoint again;
        ASSERT_TRUE(
            parseEndpoint(endpointToString(endpoint), again, error))
            << error;
        EXPECT_EQ(again, endpoint);
    }
}

/** Malformed-URI table: every row must fail with a diagnostic that
 *  names the offending spec — the CLI forwards these verbatim with
 *  exit 64, so they must be pointed enough to act on. */
TEST(EndpointTest, MalformedSpecsFailWithPointedDiagnostics)
{
    struct Row
    {
        const char *spec;
        const char *needle; ///< required error fragment
    };
    const Row rows[] = {
        {"", "empty endpoint"},
        {"unix:", "missing socket path"},
        {"tcp:", "tcp:HOST:PORT"},
        {"tcp:localhost", "tcp:HOST:PORT"},
        {"tcp::7461", "missing host"},
        {"tcp:host:", "missing port"},
        {"tcp:host:http", "not a number"},
        {"tcp:host:-1", "not a number"},
        {"tcp:host:65536", "exceeds 65535"},
        {"tcp:host:99999999", "exceeds 65535"},
        {"tcp:[::1", "unterminated '['"},
        {"tcp:[::1]7461", "expected ':PORT' after ']'"},
        {"tcp:[::1]", "expected ':PORT' after ']'"},
        {"tcp:::1:7461", "bracketed"},
        {"tcp:[]:7461", "missing host"},
        {"udp:host:7461", "unknown scheme 'udp:'"},
        {"http://host:7461", "unknown scheme 'http:'"},
    };
    for (const Row &row : rows) {
        Endpoint endpoint;
        std::string error;
        EXPECT_FALSE(parseEndpoint(row.spec, endpoint, error))
            << "'" << row.spec << "' parsed";
        EXPECT_NE(error.find(row.needle), std::string::npos)
            << "'" << row.spec << "' produced unhelpful error: "
            << error;
        if (row.spec[0] != '\0') {
            EXPECT_NE(error.find(row.spec), std::string::npos)
                << "error does not name the offending spec: " << error;
        }
    }
}

TEST(EndpointTest, ParsesEndpointLists)
{
    std::vector<Endpoint> endpoints;
    std::string error;
    ASSERT_TRUE(parseEndpointList(
        "unix:/tmp/a.sock,tcp:127.0.0.1:7461,/tmp/b.sock", endpoints,
        error))
        << error;
    ASSERT_EQ(endpoints.size(), 3u);
    EXPECT_EQ(endpoints[0].kind, TransportKind::Unix);
    EXPECT_EQ(endpoints[1].kind, TransportKind::Tcp);
    EXPECT_EQ(endpoints[2].path, "/tmp/b.sock");

    EXPECT_FALSE(parseEndpointList("", endpoints, error));
    EXPECT_NE(error.find("empty endpoint list"), std::string::npos);
    EXPECT_FALSE(
        parseEndpointList("unix:/a.sock,,unix:/b.sock", endpoints,
                          error));
    EXPECT_NE(error.find("empty element"), std::string::npos);
    EXPECT_FALSE(
        parseEndpointList("unix:/a.sock,tcp:oops", endpoints, error));
    EXPECT_NE(error.find("tcp:oops"), std::string::npos);
}

// ---- listeners ----

/** One frame each way over an accepted connection of @p listener. */
void
roundTripOver(Listener &listener)
{
    std::thread server([&] {
        int fd = listener.acceptClient(5000);
        ASSERT_GE(fd, 0) << "accept timed out";
        WireChannel channel(fd);
        std::string payload;
        ASSERT_EQ(channel.recvFrame(payload, 5000), IoStatus::Ok);
        ASSERT_TRUE(channel.sendFrame(
            wire::frameBytes(wire::FrameType::Error,
                             "echo:" + payload.substr(1))));
    });

    int fd = -1;
    std::string error;
    ASSERT_TRUE(connectEndpoint(listener.endpoint(), 2000, fd, error))
        << error;
    WireChannel channel(fd);
    ASSERT_TRUE(channel.sendFrame(
        wire::frameBytes(wire::FrameType::Error, "ping-payload")));
    std::string payload;
    ASSERT_EQ(channel.recvFrame(payload, 5000), IoStatus::Ok);
    EXPECT_NE(payload.find("echo:"), std::string::npos);
    EXPECT_NE(payload.find("ping-payload"), std::string::npos);
    server.join();
}

TEST(TransportTest, TcpLoopbackRoundTripOnEphemeralPort)
{
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(
        listener.listenOn(tcpEndpoint("127.0.0.1", 0), error))
        << error;
    // The bound endpoint must carry the kernel-resolved port.
    EXPECT_NE(listener.endpoint().port, 0);
    roundTripOver(listener);
}

TEST(TransportTest, TcpIpv6LoopbackRoundTrip)
{
    TcpListener listener;
    std::string error;
    if (!listener.listenOn(tcpEndpoint("::1", 0), error))
        GTEST_SKIP() << "no IPv6 loopback here: " << error;
    EXPECT_NE(listener.endpoint().port, 0);
    roundTripOver(listener);
}

TEST(TransportTest, MakeListenerDispatchesOnTransport)
{
    std::string path = socketPath("mk");
    std::unique_ptr<Listener> unixListener =
        makeListener(unixEndpoint(path));
    std::string error;
    ASSERT_TRUE(unixListener->listenOn(unixEndpoint(path), error))
        << error;
    EXPECT_EQ(unixListener->transport(), TransportKind::Unix);
    roundTripOver(*unixListener);
    unixListener->close();

    std::unique_ptr<Listener> tcpListener =
        makeListener(tcpEndpoint("127.0.0.1", 0));
    ASSERT_TRUE(
        tcpListener->listenOn(tcpEndpoint("127.0.0.1", 0), error))
        << error;
    EXPECT_EQ(tcpListener->transport(), TransportKind::Tcp);
}

TEST(TransportTest, ConnectToDeadTcpPortFailsWithinBudget)
{
    // Grab an ephemeral port, then close it: nothing listens there.
    TcpListener listener;
    std::string error;
    ASSERT_TRUE(
        listener.listenOn(tcpEndpoint("127.0.0.1", 0), error))
        << error;
    Endpoint dead = listener.endpoint();
    listener.close();

    int fd = -1;
    auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(connectEndpoint(dead, 300, fd, error));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_LT(elapsed, 5000) << "refused connect must not hang";
    EXPECT_FALSE(error.empty());
}

// ---- fragmentation / short-I/O fault injection ----

/**
 * Two connected channels: an AF_UNIX socketpair (the keqd transport)
 * or, with @p pipes, two pipes (the sandbox worker transport).
 */
struct ChannelPair
{
    explicit ChannelPair(bool pipes = false)
    {
        if (!pipes) {
            int fds[2] = {-1, -1};
            if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
                a = WireChannel(fds[0]);
                b = WireChannel(fds[1]);
            }
            return;
        }
        int aToB[2] = {-1, -1};
        int bToA[2] = {-1, -1};
        if (::pipe2(aToB, O_CLOEXEC) == 0 &&
            ::pipe2(bToA, O_CLOEXEC) == 0) {
            a = WireChannel(bToA[0], aToB[1]);
            b = WireChannel(aToB[0], bToA[1]);
        }
    }
    WireChannel a;
    WireChannel b;
};

/**
 * The fragmenting fault-injection transport: writes @p bytes to raw
 * @p fd split at seeded-random boundaries (1..maxChunk bytes each,
 * with a tiny sleep between some chunks so the reader really observes
 * partial frames). This is what a congested TCP path does to frames;
 * recvFrame's short-read loop must be indifferent to it.
 */
void
writeFragmented(int fd, const std::string &bytes, support::Rng &rng,
                size_t maxChunk)
{
    size_t offset = 0;
    while (offset < bytes.size()) {
        size_t chunk =
            1 + rng.below(std::min(maxChunk, bytes.size() - offset));
        ssize_t wrote = ::write(fd, bytes.data() + offset, chunk);
        ASSERT_GT(wrote, 0) << "fragmented send failed";
        offset += static_cast<size_t>(wrote);
        if (rng.below(4) == 0)
            ::usleep(500);
    }
}

TEST(TransportTest, FramesSurviveArbitraryFragmentation)
{
    // Frames from tiny to bigger-than-any-single-read, including a
    // payload crossing the typical 4 KiB pipe/socket buffer boundary.
    std::vector<std::string> payloads;
    support::Rng gen(0x5e41ce01ull);
    for (size_t size : {size_t(1), size_t(2), size_t(64), size_t(4095),
                        size_t(4096), size_t(4097), size_t(70000)}) {
        std::string payload;
        payload.reserve(size);
        for (size_t i = 0; i < size; ++i)
            payload.push_back(static_cast<char>(gen.below(256)));
        payloads.push_back(std::move(payload));
    }

    // Both transports: the keqd socket and the sandbox pipe pair.
    for (bool pipes : {false, true}) {
        SCOPED_TRACE(pipes ? "pipe pair" : "socketpair");
        ChannelPair pair(pipes);
        ASSERT_TRUE(pair.a.valid());

        support::Rng rng(0x5e41ce02ull);
        std::thread writer([&] {
            for (const std::string &payload : payloads) {
                std::string framed =
                    wire::frameBytes(wire::FrameType::Error, payload);
                writeFragmented(pair.a.writeFd(), framed, rng, 113);
            }
        });

        for (const std::string &expected : payloads) {
            std::string payload;
            ASSERT_EQ(pair.b.recvFrame(payload, 10000), IoStatus::Ok);
            // recvFrame returns type byte + body; compare the body.
            ASSERT_GE(payload.size(), 1u);
            EXPECT_EQ(payload.substr(1), expected)
                << "frame of " << expected.size()
                << " bytes reassembled differently";
        }
        writer.join();
    }
}

/** Same property, full codec: a SubmitJob frame fragmented at hostile
 *  boundaries decodes identically to the original. */
TEST(TransportTest, SubmitJobSurvivesFragmentation)
{
    ChannelPair pair;
    ASSERT_TRUE(pair.a.valid());

    wire::SubmitJobFrame job;
    job.jobId = 99;
    job.function = "@frag";
    job.moduleText = std::string(20000, 'm') + "\nend";
    job.options.smtTimeoutMs = 777;
    job.fingerprint = 0xF00DF00DF00DF00DULL;
    std::string framed = wire::encodeSubmitJob(job);

    support::Rng rng(0x5e41ce03ull);
    std::thread writer(
        [&] { writeFragmented(pair.a.writeFd(), framed, rng, 7); });

    std::string payload;
    ASSERT_EQ(pair.b.recvFrame(payload, 10000), IoStatus::Ok);
    writer.join();

    wire::FrameType type{};
    std::string body;
    ASSERT_TRUE(wire::splitFrame(payload, type, body));
    EXPECT_EQ(type, wire::FrameType::SubmitJob);
    wire::SubmitJobFrame out;
    std::string error;
    ASSERT_TRUE(wire::decodeSubmitJob(body, out, error)) << error;
    EXPECT_EQ(out.jobId, job.jobId);
    EXPECT_EQ(out.moduleText, job.moduleText);
    EXPECT_EQ(out.options.smtTimeoutMs, 777u);
    EXPECT_EQ(out.fingerprint, job.fingerprint);
}

TEST(TransportTest, TruncatedFrameIsTypedEof)
{
    ChannelPair pair;
    ASSERT_TRUE(pair.a.valid());
    // Announce 100 bytes, deliver 10, hang up.
    std::string framed =
        wire::frameBytes(wire::FrameType::Error, std::string(99, 'x'));
    ASSERT_TRUE(::send(pair.a.writeFd(), framed.data(), 14,
                       MSG_NOSIGNAL) == 14);
    pair.a.close();

    std::string payload;
    EXPECT_EQ(pair.b.recvFrame(payload, 2000), IoStatus::Eof)
        << "a torn frame must be Eof, not Ok or a hang";
}

TEST(TransportTest, SilentPeerIsTypedTimeout)
{
    ChannelPair pair;
    ASSERT_TRUE(pair.a.valid());
    std::string payload;
    auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(pair.b.recvFrame(payload, 200), IoStatus::Timeout);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    EXPECT_GE(elapsed, 150);
    EXPECT_LT(elapsed, 5000);
}

/** A deadline that expires mid-frame is a Timeout that keeps the
 *  partial frame: the next recvFrame continues it, so heartbeat and
 *  stop-check ticks can never tear a frame. */
TEST(TransportTest, RecvResumesAFrameCutByItsDeadline)
{
    for (bool pipes : {false, true}) {
        SCOPED_TRACE(pipes ? "pipe pair" : "socketpair");
        ChannelPair pair(pipes);
        ASSERT_TRUE(pair.a.valid());
        std::string framed =
            wire::frameBytes(wire::FrameType::Error, "intact payload");
        // Cut inside the payload, after the length prefix.
        ASSERT_EQ(::write(pair.a.writeFd(), framed.data(), 6), 6);

        std::string payload = "untouched";
        EXPECT_EQ(pair.b.recvFrame(payload, 100), IoStatus::Timeout);
        EXPECT_EQ(payload, "untouched");
        EXPECT_EQ(pair.b.bytesReceived(), 0u);

        ASSERT_EQ(::write(pair.a.writeFd(), framed.data() + 6,
                          framed.size() - 6),
                  static_cast<ssize_t>(framed.size() - 6));
        ASSERT_EQ(pair.b.recvFrame(payload, 2000), IoStatus::Ok);
        EXPECT_EQ(payload, framed.substr(4));
        EXPECT_EQ(pair.b.bytesReceived(), framed.size());
    }
}

} // namespace
} // namespace keq::service
