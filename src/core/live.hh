/**
 * @file
 * Snapshot-able incremental characterization for long-running
 * sessions.
 *
 * CharacterizationPass::run() drives accumulators over a source it
 * controls: it pulls until exhaustion, then finishes.  A daemon
 * session cannot hand over control like that — batches arrive
 * whenever the network delivers them, and a live report may be
 * wanted at any instant in between.  LiveCharacterization inverts
 * the pass: the caller pushes batches as they materialize, and a
 * mid-stream snapshot computes each trace-derived report
 * (burstiness, read/write dynamics, totals) from the live
 * accumulators in place — the same function finish() stores — so
 * the live state is neither copied nor disturbed.
 *
 * The one place the trace-derived subset of DriveCharacterization is
 * assembled: dlwd sessions, `dlwtool characterize` and `dlwtool
 * analyze` all fold through it — so a session's report is
 * byte-identical to `dlwtool characterize` over the same records.
 */

#ifndef DLW_CORE_LIVE_HH
#define DLW_CORE_LIVE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/binenc.hh"
#include "common/status.hh"
#include "core/burstiness.hh"
#include "core/characterize.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "trace/batch.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace core
{

/**
 * Push-driven characterization of one request stream, with
 * mid-stream snapshots.
 *
 * Usage: construct with the stream header, check status(), observe()
 * every batch in arrival order, snapshot() at will, finish() exactly
 * once at end-of-stream.  observe() validates the whole-trace
 * invariants incrementally (sorted arrivals, inside the window,
 * nonzero sizes) and returns InvalidArgument when the stream
 * violates them.
 */
class LiveCharacterization
{
  public:
    /** Accumulators fused per stream (burstiness, rwmix, totals). */
    static constexpr std::size_t kAccumulators = 3;

    explicit LiveCharacterization(trace::MsStreamHeader meta);

    /**
     * CorruptData when the header's window cannot be binned (see
     * stats::binsCovering()); every observe() then returns it, and
     * the accumulators stay empty.  OK otherwise.
     */
    const Status &status() const { return status_; }

    /** Stream metadata in force. */
    const trace::MsStreamHeader &meta() const { return meta_; }

    /** Requests observed so far. */
    std::uint64_t requests() const { return n_; }

    /**
     * Fold one batch into every accumulator.
     *
     * @return InvalidArgument when an arrival is out of order,
     *         outside the window, or a request has zero blocks.
     */
    Status observe(const trace::RequestBatch &batch);

    /**
     * Characterize the stream as seen so far without perturbing the
     * live state: the bytes finish() would give if the stream ended
     * here, computed from the accumulators in place.  Valid at any
     * point, including before the first batch and after finish().
     */
    DriveCharacterization snapshot() const;

    /**
     * Finish the live accumulators and assemble the final
     * characterization.  Call exactly once, after the last batch.
     */
    DriveCharacterization finish();

    /**
     * Append the full accumulator state — stream header plus every
     * accumulator, bit-exact — for a crash-safe checkpoint.
     */
    void saveState(BinEnc &enc) const;

    /**
     * Reconstruct a live characterization from saveState() bytes.
     * Feeding the restored instance the remainder of the stream
     * yields reports byte-identical to an uninterrupted run.
     *
     * @return nullptr when the blob is truncated or garbled.
     */
    static std::unique_ptr<LiveCharacterization> restore(BinDec &dec);

  private:
    DriveCharacterization assemble(BurstinessReport b,
                                   RwDynamics rw) const;

    trace::MsStreamHeader meta_;
    Status status_;
    BurstinessAccumulator burstiness_;
    RwMixAccumulator rwmix_;
    TraceTotalsAccumulator totals_;
    std::uint64_t n_ = 0;
    Tick prev_ = 0;
    bool finished_ = false;
};

/**
 * Render a characterization as a single-line JSON object (the
 * daemon's `GET /v1/sessions/<id>/report` payload).  Absent optional
 * fields are omitted; key order is fixed so the output is
 * deterministic.
 */
std::string renderCharacterizationJson(const DriveCharacterization &c);

} // namespace core
} // namespace dlw

#endif // DLW_CORE_LIVE_HH
