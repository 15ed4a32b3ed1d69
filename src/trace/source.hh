/**
 * @file
 * RequestSource: the producer side of the streaming batch pipeline.
 *
 * Every component that used to hand over a whole MsTrace now offers
 * this interface instead: a stream of RequestBatch chunks in arrival
 * order, with the identifying metadata (drive id, observation window)
 * known up front.  Consumers — the characterization pass, the drive
 * servicing engine, the whole-trace reader shims — pull batches until
 * next() returns false, then check status() to distinguish a clean
 * end-of-stream from a mid-stream failure.
 *
 * Implementations:
 *  - MsTraceSource (here) adapts an in-memory MsTrace, which keeps
 *    every pre-streaming call site and test working unchanged;
 *  - the file decoders in trace/stream.hh stream CSV and binary files
 *    chunk-by-chunk under the corrupt-record policies;
 *  - synth::Workload::openSource() synthesizes batches on the fly.
 */

#ifndef DLW_TRACE_SOURCE_HH
#define DLW_TRACE_SOURCE_HH

#include <string>

#include "common/status.hh"
#include "trace/batch.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace trace
{

/** Stream metadata carried by a ms-trace header (CSV or binary). */
struct MsStreamHeader
{
    std::string drive_id;
    Tick start = 0;
    Tick duration = 0;
};

/**
 * A pull-based stream of request batches in arrival order.
 */
class RequestSource
{
  public:
    virtual ~RequestSource() = default;

    /** Identifier of the traced drive. */
    virtual const std::string &driveId() const = 0;

    /** Start of the observation window. */
    virtual Tick start() const = 0;

    /** Length of the observation window. */
    virtual Tick duration() const = 0;

    /** End of the observation window. */
    Tick end() const { return start() + duration(); }

    /** Drive id and window, as a stream header carries them. */
    MsStreamHeader header() const { return {driveId(), start(), duration()}; }

    /**
     * Clear `batch` and refill it with the next chunk of the stream.
     *
     * @return True when at least one request was delivered; false at
     *         end-of-stream or on a stream error (see status()).
     *         Every batch except the last is filled to capacity.
     */
    virtual bool next(RequestBatch &batch) = 0;

    /**
     * Stream health: OK while the stream is live and after a clean
     * end-of-stream; the first unrecovered decode error otherwise.
     */
    virtual Status status() const { return Status(); }

    /**
     * Tenant/class tag stamped onto every delivered batch.
     *
     * Defaults to the single-tenant identity tag, which is how the
     * pre-tenancy call sites stay byte-identical without changes.
     */
    const qos::TagId &tag() const { return tag_; }

    /** Set the tag future batches will carry. */
    void setTag(const qos::TagId &tag) { tag_ = tag; }

  protected:
    qos::TagId tag_;
};

/**
 * RequestSource over an in-memory trace (non-owning view).
 *
 * The adapter that lets whole-vector call sites drive the streaming
 * kernels: the trace must outlive the source.
 */
class MsTraceSource : public RequestSource
{
  public:
    explicit MsTraceSource(const MsTrace &trace) : trace_(trace) {}

    const std::string &driveId() const override
    {
        return trace_.driveId();
    }

    Tick start() const override { return trace_.start(); }

    Tick duration() const override { return trace_.duration(); }

    bool next(RequestBatch &batch) override;

    /** Rewind to the beginning of the trace. */
    void reset() { pos_ = 0; }

  private:
    const MsTrace &trace_;
    std::size_t pos_ = 0;
};

/**
 * Drain a source into an MsTrace (metadata plus every request).
 *
 * @return The source's terminal status; on failure the trace holds
 *         the requests decoded before the error.
 */
Status drainToTrace(RequestSource &src, MsTrace &out,
                    std::size_t batch_requests = kDefaultBatchRequests);

/**
 * Note a decoded batch in the trace.batch.* metrics (no-op while the
 * obs registry is disarmed).  Sources call this once per delivered
 * batch.
 */
void noteBatchDecoded(const RequestBatch &batch);

/**
 * Force-register the trace.batch.* metrics so snapshots carry the
 * streaming schema before any batch is decoded.
 */
void registerBatchMetrics();

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_SOURCE_HH
