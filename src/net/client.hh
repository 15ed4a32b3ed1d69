/**
 * @file
 * The client half of the dlwd protocols (see net/wire.hh): a
 * blocking connection with deadlines, HTTP GET, and DLWS1 sessions.
 * Client sockets use the plain syscalls, not the fault-injecting
 * net/io shims, so a `net.io.*` fault point only perturbs a server.
 */

#ifndef DLW_NET_CLIENT_HH
#define DLW_NET_CLIENT_HH

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <string_view>

#include <sys/types.h>

#include "common/status.hh"
#include "net/wire.hh"

namespace dlw
{
namespace net
{

/** Where a client connects, and how long each step may block. */
struct Endpoint
{
    std::string host = "127.0.0.1"; ///< dotted IPv4 address
    int port = 7433;
    /** Connect deadline; 0 waits as long as the kernel does. */
    std::uint64_t connect_timeout_ms = 0;
    /** Deadline of each blocking send and receive; 0 blocks. */
    std::uint64_t io_timeout_ms = 0;
};

/**
 * One blocking TCP connection to a dlwd server.  Reads are buffered,
 * so lines and byte counts come out of the same stream without a
 * syscall per byte.
 */
class ClientConn
{
  public:
    /**
     * Connect to `to`.  Refused, unreachable or timed out is
     * Unavailable (retry may help); a bad host is InvalidArgument.
     */
    static StatusOr<ClientConn> dial(const Endpoint &to);

    ClientConn(ClientConn &&o) noexcept;
    ~ClientConn();

    /**
     * Send every byte.  The server closing the connection is
     * Truncated, like a short read; other failures are IoError.
     */
    Status sendAll(std::string_view bytes);

    /** Half-close: the server sees end of input. */
    void shutdownWrite();

    /** Read one '\n'-terminated line, newline stripped. */
    Status readLine(std::string &line);

    /** Read exactly `n` bytes into `out`. */
    Status readExact(std::size_t n, std::string &out);

    /** Read until the server closes; appends to `out`. */
    Status readToEof(std::string &out);

  private:
    explicit ClientConn(int fd) : fd_(fd) {}

    /**
     * Drop the consumed bytes and read more: the bytes read, 0 at
     * end of input, or -1 with errno set.
     */
    ssize_t fill();

    int fd_ = -1;
    std::string buf_;      ///< bytes read but not yet consumed
    std::size_t head_ = 0; ///< first unconsumed byte of buf_
};

/**
 * GET `path` with Connection: close and read the response to EOF.
 * Returns the raw response: status line, head and body.
 */
StatusOr<std::string> httpGet(const Endpoint &to,
                              const std::string &path);

/**
 * GET `path` like httpGet(), returning the body when the status is
 * 200; IoError naming the status line otherwise.
 */
StatusOr<std::string> httpGetBody(const Endpoint &to,
                                  const std::string &path);

/** What a DLWS1 session returned. */
struct StreamReply
{
    std::string session_id; ///< from the ack
    /** The server's timeline clock on the ack; 0 when absent. */
    std::uint64_t server_ack_ns = 0;
    /** This process's timeline clock when the ack landed. */
    std::uint64_t client_ack_ns = 0;
    std::string report; ///< the final report bytes
};

/**
 * Run one streaming session: connect, send the hello, read the ack,
 * send the payload (chopped into frames when the hello says bin),
 * half-close and read the final report.  `on_ack` runs once the ack
 * has been read, before any payload byte is sent.
 *
 * A hello with a trace id emits client.connect, client.stream and
 * client.report spans under "trace/<id>/" on the timeline.
 *
 * @return The reply, or:
 *   - Unavailable when a retry may succeed: the connect failed, or
 *     the server shed the hello ("server overloaded", "server
 *     throttled this class");
 *   - FailedPrecondition carrying the server's "DLWR1 error" text;
 *   - Truncated when the server closed the connection mid-session;
 *   - CorruptData for a malformed ack or response line;
 *   - IoError for any other socket failure.
 */
StatusOr<StreamReply> streamSession(
    const Endpoint &to, const StreamHello &hello, std::istream &payload,
    const std::function<void(const StreamReply &)> &on_ack = {});

/** streamSession() over an in-memory payload. */
StatusOr<StreamReply> streamSession(const Endpoint &to,
                                    const StreamHello &hello,
                                    std::string_view payload);

} // namespace net
} // namespace dlw

#endif // DLW_NET_CLIENT_HH
