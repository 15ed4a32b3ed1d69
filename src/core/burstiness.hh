/**
 * @file
 * Burstiness analysis across time scales.
 *
 * The paper's central quantitative claim — "the workload arriving at
 * the disk is bursty across all time scales evaluated" — reduces to
 * three instruments applied to the per-bin arrival counts of a
 * trace: the index of dispersion for counts as the bin widens, the
 * Hurst exponent from the variance-time relation, and the decay of
 * the count autocorrelation.  This module bundles them.
 */

#ifndef DLW_CORE_BURSTINESS_HH
#define DLW_CORE_BURSTINESS_HH

#include <vector>

#include "core/pass.hh"
#include "stats/dispersion.hh"
#include "stats/hurst.hh"
#include "stats/simd/simd.hh"
#include "stats/summary.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace core
{

/**
 * Bundled burstiness verdict for one counts series.
 */
struct BurstinessReport
{
    /** Base bin width the counts were taken at. */
    Tick base_bin = 0;
    /** Coefficient of variation of interarrival gaps (1 = Poisson). */
    double interarrival_cv = 0.0;
    /** Peak-to-mean ratio of base-bin counts. */
    double peak_to_mean = 0.0;
    /** IDC curve across aggregation scales. */
    std::vector<stats::IdcPoint> idc;
    /** Aggregated-variance Hurst estimate. */
    stats::HurstEstimate hurst_var;
    /** Rescaled-range Hurst estimate. */
    stats::HurstEstimate hurst_rs;
    /** Autocorrelation of base-bin counts (lags 0..N). */
    std::vector<double> acf;
    /** First lag where the ACF drops below 0.1. */
    std::size_t decorrelation_lag = 0;

    /**
     * True when the traffic is scale-free bursty: IDC grows by at
     * least the given factor from the finest to the coarsest scale
     * evaluated.
     */
    bool burstyAcrossScales(double growth_factor = 4.0) const;
};

/**
 * Streaming burstiness analysis: accumulates the base-bin counts and
 * the interarrival-gap summary incrementally (the gap stream is
 * folded into a running 4-lane SummaryLanes through the dispatched
 * SIMD kernels, never materialized), then derives the report in
 * finish().  analyzeBurstiness() is a one-accumulator
 * pass over an in-memory source, so both paths share one
 * implementation.
 */
class BurstinessAccumulator : public TraceAccumulator
{
  public:
    /**
     * @param base_bin Finest counting bin (default 10 ms, > 0).
     * @param scales   Aggregation factors for the IDC curve;
     *                 defaults to powers of four up to ~10 minutes.
     */
    explicit BurstinessAccumulator(Tick base_bin = 10 * kMsec,
                                   std::vector<std::size_t> scales = {});

    const char *name() const override { return "burstiness"; }

    void begin(const trace::MsStreamHeader &meta) override;
    void observe(const trace::RequestBatch &batch) override;
    void finish() override;

    /** The report (valid after finish()). */
    const BurstinessReport &report() const { return rep_; }

    /** Append the pre-finish accumulator state (bit-exact). */
    void saveState(BinEnc &enc) const;

    /** Restore state written by saveState(); false on a bad blob. */
    bool loadState(BinDec &dec);

  private:
    Tick base_bin_;
    std::vector<std::size_t> scales_;
    stats::BinnedSeries counts_;
    stats::simd::SummaryLanes gaps_;
    std::vector<double> gap_scratch_;
    Tick prev_arrival_ = 0;
    bool have_prev_ = false;
    BurstinessReport rep_;
};

/**
 * Analyse a request trace's arrival counts.
 *
 * @param tr        Trace to analyse.
 * @param base_bin  Finest counting bin (default 10 ms).
 * @param scales    Aggregation factors for the IDC curve; defaults
 *                  to powers of four up to ~10 minutes.
 */
BurstinessReport analyzeBurstiness(
    const trace::MsTrace &tr, Tick base_bin = 10 * kMsec,
    std::vector<std::size_t> scales = {});

/**
 * Analyse an arbitrary counts series with a known bin width
 * (e.g. requests-per-hour from an Hour trace).
 */
BurstinessReport analyzeCountSeries(const stats::BinnedSeries &counts,
                                    std::vector<std::size_t> scales = {});

} // namespace core
} // namespace dlw

#endif // DLW_CORE_BURSTINESS_HH
