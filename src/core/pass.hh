/**
 * @file
 * The fused characterization pass: one trip over the request stream
 * feeding every registered accumulator.
 *
 * The pre-streaming kernels each walked the whole request vector on
 * their own, so characterizing a drive cost one full traversal per
 * analysis and required the trace to be resident.  The streaming
 * refactor inverts that: kernels expose an accumulator (observe a
 * batch, finish once) and CharacterizationPass fans each decoded
 * batch out to all of them, so a file is decoded once, peak memory
 * is O(batch) plus the accumulators' own bounded state, and the
 * results are byte-identical to the whole-vector path — the legacy
 * entry points are thin wrappers that run a single-accumulator pass
 * over an in-memory source.
 *
 * Accumulator contract:
 *  - begin() is called once before the first batch with the stream
 *    metadata (window, drive id) so bin layouts can be pre-sized
 *    exactly like the whole-trace code pre-sized them;
 *  - observe() sees every batch in arrival order, and must carry any
 *    cross-request state (previous arrival, run direction, previous
 *    LBA) across batch boundaries so results do not depend on how
 *    the stream was chunked;
 *  - finish() is called once after the last batch and computes the
 *    report.
 */

#ifndef DLW_CORE_PASS_HH
#define DLW_CORE_PASS_HH

#include <cstdint>
#include <vector>

#include "common/status.hh"
#include "trace/batch.hh"
#include "trace/source.hh"

namespace dlw
{

class BinEnc;
class BinDec;

namespace core
{

/**
 * One streaming analysis: observes every batch of a pass, then
 * finishes into its report.
 */
class TraceAccumulator
{
  public:
    virtual ~TraceAccumulator() = default;

    /** Short stable name, for diagnostics. */
    virtual const char *name() const = 0;

    /**
     * Start of stream: window metadata is known, no batch seen yet.
     * Implementations pre-size their bin layouts here, and return
     * CorruptData for a window they cannot lay bins over (leaving
     * the accumulator empty).
     */
    virtual Status begin(const trace::MsStreamHeader &meta)
    {
        (void)meta;
        return Status();
    }

    /** One batch, in arrival order. */
    virtual void observe(const trace::RequestBatch &batch) = 0;

    /** End of stream: compute the report. */
    virtual void finish() {}
};

/**
 * Whole-trace totals as a streaming accumulator: request/read
 * counts, bytes and blocks moved, and the arrival rate over the
 * source window.  Reproduces the MsTrace counterpart formulas
 * exactly.
 */
class TraceTotalsAccumulator : public TraceAccumulator
{
  public:
    const char *name() const override { return "totals"; }

    Status begin(const trace::MsStreamHeader &meta) override;
    void observe(const trace::RequestBatch &batch) override;

    /** Number of requests observed. */
    std::size_t count() const { return n_; }

    /** Number of read requests observed. */
    std::size_t readCount() const { return reads_; }

    /** Fraction of requests that are reads (0 when empty). */
    double readFraction() const;

    /** Mean arrival rate in requests per second (0 when empty). */
    double arrivalRate() const;

    /** Append the accumulator state. */
    void saveState(BinEnc &enc) const;

    /** Restore state written by saveState(); false on truncation. */
    bool loadState(BinDec &dec);

  private:
    std::size_t n_ = 0;
    std::size_t reads_ = 0;
    Tick duration_ = 0;
};

/**
 * Drive a set of accumulators over one request stream in a single
 * decode trip.  Accumulators are borrowed, not owned; add() them
 * before run().
 */
class CharacterizationPass
{
  public:
    /** Register an accumulator (must outlive the pass). */
    void add(TraceAccumulator &acc) { accs_.push_back(&acc); }

    /** Number of registered accumulators. */
    std::size_t accumulators() const { return accs_.size(); }

    /**
     * Stream the source to exhaustion through every accumulator:
     * begin all, observe every batch, finish all.
     *
     * @return The source's terminal status; accumulator reports are
     *         meaningless when it is not OK.
     */
    Status run(trace::RequestSource &src,
               std::size_t batch_requests =
                   trace::kDefaultBatchRequests);

  private:
    std::vector<TraceAccumulator *> accs_;
};

/**
 * Force-register the core.pass.* metrics and the core.kernel.isa
 * gauge so snapshots carry the schema before any pass runs.
 */
void registerPassMetrics();

/**
 * Count one pass feeding `accumulators` accumulators in core.pass.*
 * and publish the active kernel ISA (no-op while metrics are off).
 */
void notePassRun(std::size_t accumulators);

/** Count one batch a pass fanned out (core.pass.batches). */
void notePassBatch();

} // namespace core
} // namespace dlw

#endif // DLW_CORE_PASS_HH
