/**
 * @file
 * Read/write traffic dynamics.
 *
 * The paper analyses "the dynamics of the read and write traffic":
 * the mix is not static — writes arrive in destage-friendly bursts,
 * reads dominate business hours, and the balance drifts across
 * hours and days.  This module quantifies the mix per bin, the
 * persistence of direction runs, and write-burst structure.
 */

#ifndef DLW_CORE_RWMIX_HH
#define DLW_CORE_RWMIX_HH

#include <vector>

#include "core/pass.hh"
#include "stats/timeseries.hh"
#include "trace/hourtrace.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace core
{

/**
 * Read/write dynamics of one trace at one bin width.
 */
struct RwDynamics
{
    /** Bin width used. */
    Tick bin_width = 0;
    /** Long-run read fraction. */
    double read_fraction = 0.0;
    /** Per-bin read fraction (bins with no traffic carry -1). */
    std::vector<double> read_fraction_series;
    /** Standard deviation of the per-bin read fraction (active bins). */
    double read_fraction_stddev = 0.0;
    /** Fraction of active bins that are write-dominated (< 50% reads). */
    double write_dominated_fraction = 0.0;
    /** Mean run length of consecutive same-direction requests. */
    double mean_run_length = 0.0;
    /** Longest run of consecutive writes (requests). */
    std::size_t longest_write_run = 0;
    /** Number of write bursts (maximal write runs of >= 8 requests). */
    std::size_t write_bursts = 0;
};

/**
 * Streaming read/write dynamics: per-bin read/all counts accumulate
 * incrementally and the direction-run scan carries its state (current
 * direction, open run length) across batch boundaries, so the result
 * is independent of how the stream was chunked.  analyzeRwDynamics()
 * over a whole trace is a one-accumulator pass over an in-memory
 * source.
 */
class RwMixAccumulator : public TraceAccumulator
{
  public:
    /** @param bin_width Mixing bin (default one minute, > 0). */
    explicit RwMixAccumulator(Tick bin_width = kMinute);

    const char *name() const override { return "rwmix"; }

    Status begin(const trace::MsStreamHeader &meta) override;
    void observe(const trace::RequestBatch &batch) override;
    void finish() override;

    /** The report (valid after finish()). */
    const RwDynamics &report() const { return d_; }

    /**
     * The report over the batches observed so far, computed from the
     * live state in place; finish() stores exactly this.
     */
    RwDynamics current() const;

    /** Append the pre-finish accumulator state (bit-exact). */
    void saveState(BinEnc &enc) const;

    /** Restore state written by saveState(); false on a bad blob. */
    bool loadState(BinDec &dec);

  private:
    Tick bin_width_;
    stats::BinnedSeries reads_;
    stats::BinnedSeries all_;
    std::size_t n_ = 0;
    std::size_t read_n_ = 0;
    /** Direction runs closed so far (the open one excluded). */
    std::size_t runs_ = 0;
    std::size_t run_len_ = 0;
    bool prev_read_ = false;
    /** Over the closed write runs. */
    std::size_t longest_write_run_ = 0;
    std::size_t write_bursts_ = 0;
    RwDynamics d_;
};

/**
 * Analyse read/write dynamics of a request trace.
 *
 * @param tr        Trace to analyse.
 * @param bin_width Mixing bin (default one minute).
 */
RwDynamics analyzeRwDynamics(const trace::MsTrace &tr,
                             Tick bin_width = kMinute);

/**
 * Analyse read/write dynamics of hour counters (bin fixed at 1 h;
 * run statistics are not available at this granularity and stay 0).
 */
RwDynamics analyzeRwDynamics(const trace::HourTrace &tr);

} // namespace core
} // namespace dlw

#endif // DLW_CORE_RWMIX_HH
