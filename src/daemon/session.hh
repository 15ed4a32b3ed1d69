/**
 * @file
 * One tenant's streaming characterization session.
 *
 * A session glues the wire decoder (net/wire.hh) to the push-driven
 * characterization (core/live.hh) for one ingest connection.  The
 * epoll loop owns the byte flow and calls consume()/finishInput()
 * from the loop thread; the final fold (finish + render) runs on the
 * fleet pool; and HTTP handlers may ask for a live JSON report at
 * any moment.  A small mutex around the LiveCharacterization keeps
 * those three callers honest — snapshots are cheap (accumulator
 * copies), so the loop thread never blocks behind a fold for long.
 *
 * Sessions are held by shared_ptr from both the connection and the
 * session registry, so a client that disconnects mid-fold cannot
 * dangle the pool task.
 */

#ifndef DLW_DAEMON_SESSION_HH
#define DLW_DAEMON_SESSION_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.hh"
#include "core/live.hh"
#include "net/buffer.hh"
#include "net/wire.hh"
#include "obs/metrics.hh"
#include "qos/tag.hh"
#include "trace/batch.hh"

namespace dlw
{
namespace daemon
{

/**
 * Lifecycle of a session as exposed over HTTP.
 */
enum class SessionState
{
    kStreaming, ///< bytes still arriving
    kDone,      ///< final report rendered
    kAborted,   ///< protocol/validation error or abrupt disconnect
};

/** "streaming" / "done" / "aborted". */
const char *sessionStateName(SessionState s);

/**
 * The pipeline stages a streamed batch passes through, in order.
 * Stage latencies are attributed per session (StageStats) and
 * globally (the daemon.stage.*_seconds histograms).
 */
enum class SessionStage : std::uint8_t
{
    kRead,   ///< socket read into the connection buffer
    kDecode, ///< wire bytes -> parsed requests
    kAdmit,  ///< QoS admission (token charge / throttle decision)
    kFold,   ///< batches folded into the live accumulators
    kMerge,  ///< final finish + report render
};

/** Number of SessionStage values. */
constexpr std::size_t kSessionStageCount = 5;

/** "read" / "decode" / "admit" / "fold" / "merge". */
const char *sessionStageName(SessionStage s);

/**
 * The global latency histogram for one stage
 * (daemon.stage.<name>_seconds); powers the /v1/stats p50/p95/p99
 * columns of `dlwtool top`.
 */
obs::Histogram &sessionStageHistogram(SessionStage s);

/**
 * One session's latency account for one stage: count/total/max plus
 * a log2-ns histogram compact enough to checkpoint, precise enough
 * for p50/p95/p99 in the session report.
 */
struct StageStats
{
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    /** buckets[i] counts observations with floor(log2(ns)) == i. */
    std::array<std::uint32_t, 32> buckets{};

    void note(std::uint64_t ns);

    /** Approximate quantile (geometric bucket midpoint), in ns. */
    double quantileNs(double q) const;
};

/**
 * One streaming session: decoder + live characterization + final
 * report.  Thread-safe where the daemon needs it to be (see file
 * comment); everything else is loop-thread-only.
 */
class Session
{
  public:
    /**
     * @param id       Registry key, e.g. "acme-3".
     * @param tenant   Tenant label from the hello line.
     * @param format   Payload encoding.
     * @param klass    Workload class negotiated in the hello (or the
     *                 X-DLW-Class HTTP header); defaults interactive.
     * @param trace_id Client-generated trace id from the hello;
     *                 empty means untraced (no per-trace timeline
     *                 names are interned).
     */
    Session(std::string id, std::string tenant,
            net::StreamFormat format,
            qos::WorkClass klass = qos::WorkClass::kInteractive,
            std::string trace_id = std::string());

    const std::string &id() const { return id_; }
    const std::string &tenant() const { return tenant_; }

    /** Trace id from the hello ("" when untraced). */
    const std::string &traceId() const { return trace_id_; }

    /**
     * Interned timeline event names for this trace, or nullptr when
     * untraced — the caller guards emits with a null check, so an
     * untraced session costs one branch beyond the armed gate.
     */
    const char *tlSpan() const { return tl_span_; }
    const char *tlFold() const { return tl_fold_; }
    const char *tlPark() const { return tl_park_; }
    const char *tlReport() const { return tl_report_; }

    /** Any thread: account `ns` to stage `st` (self + global). */
    void noteStage(SessionStage st, std::uint64_t ns);

    /** Wall-clock session start, ms since the Unix epoch. */
    std::uint64_t startedAtMs() const { return started_at_ms_; }

    /**
     * Any thread: elapsed ms — live (monotonic since construction)
     * while streaming, frozen at the final fold once done.
     */
    std::uint64_t durationMs() const;

    /** Workload class the session negotiated. */
    qos::WorkClass klass() const { return tag_.klass; }

    /** Full tenant/class tag (tenant interned at construction). */
    const qos::TagId &tag() const { return tag_; }

    /** Loop thread: decode and fold every parseable byte of `in`. */
    Status consume(net::ByteQueue &in);

    /**
     * Loop thread: no more payload bytes will arrive (the peer
     * half-closed, or the binary end frame landed).  Flushes a final
     * CSV line that arrived without its newline, validates stream
     * completeness, and folds any final partial batch; on OK the
     * session is ready for finalReportText().
     *
     * @param in Remaining unparsed connection bytes.
     */
    Status finishInput(net::ByteQueue &in);

    /**
     * Loop thread: true once the payload ended cleanly on its own
     * (binary end frame) — the signal to fold without waiting for
     * the half-close.
     */
    bool inputComplete() const { return decoder_.done(); }

    /** Loop thread: mark the session failed (protocol error, drop). */
    void abort(const std::string &why);

    /**
     * Fold/pool thread: finish the accumulators and render the final
     * plain-text report (the bytes the client receives after
     * "DLWR1 ok").  Call once, after finishInput() returned OK.
     */
    std::string finalReportText();

    /**
     * Any thread: JSON state + characterization snapshot for
     * `GET /v1/sessions/<id>/report`.  While streaming this is a
     * mid-stream snapshot; after the fold it is the final result.
     */
    std::string reportJson() const;

    /**
     * Any thread: the session's summary object for `GET
     * /v1/sessions` — id, tenant, class, state, trace, start,
     * duration and records/s.  reportJson() opens with the same
     * fields, rendered by the same code under the same lock.
     */
    std::string summaryJson() const;

    /** Any thread: current lifecycle state. */
    SessionState state() const;

    /** Any thread: records folded so far. */
    std::uint64_t records() const;

    /**
     * Any thread: one-shot accounting latch.  The daemon counts each
     * session exactly once (completed or aborted, active -1); the
     * first caller wins and does the counting.
     */
    bool settleOnce();

    /** Any thread: payload bytes consumed so far. */
    std::uint64_t payloadBytes() const;

    /**
     * Any thread: append the session's full state — identity,
     * lifecycle, decoder progress, live accumulators (pre-finish) or
     * the rendered final report (post-finish) — for a crash-safe
     * checkpoint.
     */
    void saveState(BinEnc &enc) const;

    /**
     * Reconstruct a session from saveState() bytes.  A restored
     * streaming session resumes exactly where the checkpoint cut it:
     * feeding it the remaining payload bytes yields a final report
     * byte-identical to an uninterrupted run.  A restored done
     * session serves its stored report without refolding.
     *
     * @return nullptr when the blob is truncated or garbled.
     */
    static std::shared_ptr<Session> restore(BinDec &dec);

  private:
    /** Drain decoder batches into the characterization. */
    Status foldPending();

    /** (Re)intern the per-trace timeline names from trace_id_. */
    void internTraceNames();

    /** durationMs() with mu_ held. */
    std::uint64_t durationMsLocked() const;

    /**
     * With mu_ held: the summary fields, from the opening brace to
     * records_per_s (no closing brace); `with_error` adds the abort
     * reason after the trace id, as the report carries it.
     */
    void writeSummary(std::ostream &os, bool with_error) const;

    const std::string id_;
    const std::string tenant_;
    const qos::TagId tag_;
    const net::StreamFormat format_;
    /** Set at construction, or by restore() once the v4 tail lands. */
    std::string trace_id_;
    // Interned once at construction (nullptr when untraced) so the
    // hot path never allocates for a trace event name.
    const char *tl_span_ = nullptr;
    const char *tl_decode_ = nullptr;
    const char *tl_fold_ = nullptr;
    const char *tl_park_ = nullptr;
    const char *tl_report_ = nullptr;
    net::StreamDecoder decoder_;
    trace::RequestBatch batch_;

    mutable std::mutex mu_; ///< guards live_, state_, error_, settled_
    std::unique_ptr<core::LiveCharacterization> live_;
    SessionState state_ = SessionState::kStreaming;
    std::string error_;
    bool settled_ = false;
    std::uint64_t payload_bytes_ = 0;

    // Cached at the final fold so a checkpointed done session can be
    // served after restart without refolding (the accumulators are
    // consumed by finish()).
    std::string final_text_;
    std::string final_char_json_;
    std::uint64_t final_records_ = 0;

    // Latency attribution (guarded by mu_ like the rest).
    std::array<StageStats, kSessionStageCount> stages_{};
    std::uint64_t started_at_ms_ = 0;  ///< wall clock at construction
    std::uint64_t started_ns_ = 0;     ///< steady clock at construction
    std::uint64_t final_duration_ms_ = 0; ///< frozen at the final fold
};

} // namespace daemon
} // namespace dlw

#endif // DLW_DAEMON_SESSION_HH
