/**
 * @file
 * dlwd: the characterization daemon's epoll event loop.
 *
 * One thread owns every socket.  The loop accepts connections,
 * sniffs the first bytes to split them into ingest sessions (hello
 * line "DLWS1 ...") and HTTP results queries ("GET /metrics", ...),
 * and pumps non-blocking reads/writes through per-connection bounded
 * ByteQueues.  Ingest bytes feed a net::StreamDecoder whose batches
 * fold incrementally into a core::LiveCharacterization, so a
 * session's memory is one batch plus the accumulators — never the
 * trace.  The only work that leaves the loop thread is the final
 * fold (finish + render), which runs on a fleet::ThreadPool and
 * posts its completion back through an eventfd.
 *
 * Overload policy is shedding, not queueing: connections beyond
 * max_connections are answered with 503 / "DLWR1 error overloaded"
 * and closed; a connection whose buffered bytes exceed the
 * per-connection cap is closed outright.  SIGTERM (via
 * requestStop(), which is async-signal-safe) drains: the listener
 * closes immediately, in-flight sessions get drain_grace_ms to
 * finish, stragglers are then cut.
 */

#ifndef DLW_DAEMON_SERVER_HH
#define DLW_DAEMON_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"
#include "daemon/session.hh"
#include "fleet/pool.hh"
#include "net/http.hh"
#include "net/timer.hh"
#include "qos/ratekeeper.hh"

namespace dlw
{
namespace daemon
{

/** Version string served by /healthz and /v1/stats. */
inline constexpr const char *kDaemonVersion = "dlwd/1.0";

/** Tunables for one Server. */
struct ServerConfig
{
    /** TCP port; 0 binds an ephemeral port (read it via port()). */
    std::uint16_t port = 7433;

    /** Accept budget: connections beyond this are shed with 503. */
    std::size_t max_connections = 256;

    /** Per-connection cap on buffered (unparsed + unsent) bytes. */
    std::size_t max_buffer_bytes = std::size_t(4) << 20;

    /** Fold pool width; 0 = fleet::ThreadPool::hardwareThreads(). */
    std::size_t threads = 0;

    /** Grace period for in-flight sessions after requestStop(). */
    std::uint64_t drain_grace_ms = 5000;

    // Connection lifecycle deadlines (0 disables the deadline).

    /** Accept to first byte: a connection that never speaks. */
    std::uint64_t first_byte_timeout_ms = 10000;

    /**
     * First byte to complete hello line / HTTP head.  Absolute from
     * the first byte — trickling one byte per interval (slow loris)
     * does not extend it.
     */
    std::uint64_t header_timeout_ms = 10000;

    /**
     * Gap between payload reads on a stream, or between requests on
     * an HTTP keep-alive connection.
     */
    std::uint64_t idle_timeout_ms = 60000;

    /** Write progress stall: the peer stops draining our bytes. */
    std::uint64_t write_stall_timeout_ms = 10000;

    /**
     * Directory for crash-safe session checkpoints; empty disables
     * checkpointing.  Created if missing; reloaded on start().
     */
    std::string state_dir;

    /** Checkpoint sweep interval (with a non-empty state_dir). */
    std::uint64_t checkpoint_interval_ms = 1000;

    /**
     * Enable the QoS ratekeeper.  Off by default: with QoS off no
     * ratekeeper exists and every code path is byte-identical to the
     * pre-QoS daemon.  On, sessions are admitted/throttled per
     * tenant/class tag and folds run in per-class priority lanes.
     */
    bool qos = false;

    /** Ratekeeper tuning (used only when qos is true). */
    qos::RatekeeperConfig qos_config;
};

/**
 * The daemon.  start() binds, run() loops until requestStop() (or
 * stop()) and the drain completes.  One Server per process is the
 * intended shape, but nothing prevents several.
 */
class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + arm epoll.  Call once, before run(). */
    Status start();

    /** Bound TCP port (useful with config.port == 0). */
    std::uint16_t port() const { return bound_port_; }

    /**
     * Run the event loop on the calling thread until a stop request
     * has been honoured and every connection has drained or been
     * cut.
     */
    Status run();

    /**
     * Request a graceful drain.  Async-signal-safe (an atomic store
     * plus an eventfd write), so it may be called from a SIGTERM
     * handler or any thread.
     */
    void requestStop();

    /**
     * Connections currently open.  Any thread may poll it: it reads
     * a count the loop thread keeps beside every insert into and
     * erase from its connection table.
     */
    std::size_t
    activeConnections() const
    {
        return open_conns_.load(std::memory_order_relaxed);
    }

  private:
    enum class ConnState
    {
        kSniff,  ///< deciding: stream hello vs HTTP
        kHttp,   ///< serving GETs
        kStream, ///< ingesting a session payload
        kFold,   ///< stream done; waiting on the pool
    };

    /** Which read deadline a connection is currently under. */
    enum class ReadDeadline : std::uint8_t
    {
        kNone,      ///< not expecting bytes (folding, draining out)
        kFirstByte, ///< accepted, nothing heard yet
        kHeader,    ///< hello line / HTTP head incomplete
        kIdle,      ///< between payload chunks / keep-alive requests
    };

    struct Conn
    {
        int fd = -1;
        std::uint64_t token = 0; ///< stable id (fds are reused)
        ConnState state = ConnState::kSniff;
        net::ByteQueue in;
        net::ByteQueue out;
        net::HttpParser http;
        std::shared_ptr<Session> session;
        bool shed = false;            ///< over budget at accept
        bool close_after_flush = false;
        bool saw_eof = false;
        bool want_write = false; ///< EPOLLOUT currently armed
        bool read_armed = true;  ///< EPOLLIN currently armed

        /**
         * Out of tokens: EPOLLIN is disarmed (TCP backpressure does
         * the throttling) until throttle_deadline_ns, when the timer
         * wheel resumes the stream.
         */
        bool throttled = false;
        std::uint64_t throttle_deadline_ns = 0; ///< 0 = unarmed

        ReadDeadline read_kind = ReadDeadline::kNone;
        std::uint64_t read_deadline_ns = 0;  ///< 0 = unarmed
        std::uint64_t write_deadline_ns = 0; ///< 0 = unarmed
    };

    struct FoldDone
    {
        std::uint64_t token = 0;
        std::shared_ptr<Session> session;
        bool ok = false;
        std::string text; ///< report body or error message
    };

    /** Compact live-introspection JSON for `GET /v1/stats`. */
    std::string statsJson() const;

    void acceptReady();
    void connReadable(Conn &c);
    void connWritable(Conn &c);
    void pumpConn(Conn &c);
    void sniff(Conn &c);
    void serveHttp(Conn &c);
    std::string routeHttp(const net::HttpRequest &req,
                          bool &keep_alive);
    void streamBytes(Conn &c);
    void failSession(Conn &c, const std::string &why, bool protocol);
    void startFold(Conn &c);
    void finishFolds();
    void queueWrite(Conn &c, const std::string &bytes);
    void updateEpoll(Conn &c);
    void closeConn(std::uint64_t token);
    void shutdownAll();
    void dropConn(Conn &c, const std::string &why);
    /** Queue a last reply, parse no more input, close once flushed. */
    void closeWith(Conn &c, const std::string &bytes);

    // Deadline machinery.
    void armRead(Conn &c, ReadDeadline kind);
    void armWrite(Conn &c);
    int loopTimeoutMs(std::uint64_t now_ns) const;
    void expireDeadlines(std::uint64_t now_ns);
    void evictRead(Conn &c);

    // Checkpoint machinery.
    Status restoreState();
    void checkpointSessions(bool force);

    // QoS machinery (all no-ops while rk_ == nullptr).
    void qosTick(std::uint64_t now_ns);
    void throttleConn(Conn &c, std::uint64_t now_ns);
    /**
     * Admit a new session or tagged HTTP request for (tenant, klass).
     * On a shed, queue the "throttled" refusal (429 on HTTP, DLWR1
     * error on a stream), close after the flush and return true.
     */
    bool shedByQos(Conn &c, const std::string &tenant,
                   qos::WorkClass klass);

    ServerConfig config_;
    std::uint16_t bound_port_ = 0;
    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int wake_fd_ = -1; ///< eventfd: fold completions + stop requests

    std::map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    /** conns_.size(), for activeConnections() off the loop thread. */
    std::atomic<std::size_t> open_conns_{0};
    std::map<int, std::uint64_t> fd_to_token_;
    std::uint64_t next_token_ = 1;
    std::uint64_t next_session_ = 1;

    /** Live sessions by id, for the HTTP results plane. */
    std::map<std::string, std::shared_ptr<Session>> sessions_;

    std::unique_ptr<fleet::ThreadPool> pool_;
    std::mutex folds_mu_;
    std::vector<FoldDone> folds_done_;

    std::atomic<bool> stop_requested_{false};
    bool draining_ = false;
    std::uint64_t drain_deadline_ns_ = 0;

    net::TimerWheel wheel_;
    std::vector<std::uint64_t> due_; ///< scratch for expiry sweeps

    /** Non-null only with config.qos: the admission controller. */
    std::unique_ptr<qos::Ratekeeper> rk_;
    std::uint64_t next_qos_tick_ns_ = 0; ///< 0 = qos off

    std::uint64_t started_ns_ = 0;      ///< steady clock at start()
    std::uint64_t started_wall_ms_ = 0; ///< wall clock at start()

    std::uint64_t next_ckpt_ns_ = 0; ///< 0 = checkpointing off
    /** Last checkpointed (records, state) per session id. */
    std::map<std::string, std::pair<std::uint64_t, SessionState>>
        ckpt_stamp_;
};

/**
 * Force-register the metrics a server keeps (net.*, net.fault.*,
 * daemon.* and qos.*) so snapshots cover the schema before any
 * server runs.
 */
void registerDaemonMetrics();

} // namespace daemon
} // namespace dlw

#endif // DLW_DAEMON_SERVER_HH
